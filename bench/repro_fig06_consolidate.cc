// Figure 6 — (a) the subsumption graph of the Respects relation and (b)
// its consolidation: "Proceeding in topologically sorted order ... the
// tuple stating that students do not respect incoherent teachers is
// redundant ... Thus the tuple stating that obsequious students respect
// incoherent teachers is also found redundant ... The final result, after
// both eliminations, has exactly the same extension as the relation in
// Fig. 3, and yet has fewer tuples in it."

#include <iostream>

#include "core/consolidate.h"
#include "core/explicate.h"
#include "core/subsumption.h"
#include "io/text_dump.h"
#include "repro_util.h"
#include "testing/fixtures.h"

using namespace hirel;
using repro::Check;
using repro::CheckEq;

int main() {
  testing::RespectsFixture f(/*with_resolver=*/true);

  repro::Banner("Fig. 6a: subsumption graph of Respects");
  SubsumptionGraph graph = BuildSubsumptionGraph(*f.respects);
  std::cout << SubsumptionGraphToString(*f.respects, graph);
  CheckEq<size_t>(2, graph.sources.size(),
                  "two sources hang off the universal negated tuple");
  CheckEq<size_t>(2, graph.predecessors.back().size(),
                  "(obsequious, incoherent) has both as predecessors");

  repro::Banner("Fig. 6b: consolidation");
  std::vector<Item> extension_before = Extension(*f.respects).value();
  size_t removed = ConsolidateInPlace(*f.respects).value();
  std::cout << FormatRelation(*f.respects);
  CheckEq<size_t>(2, removed, "both redundant tuples eliminated");
  CheckEq<size_t>(1, f.respects->size(), "one tuple remains");
  TupleView survivor = f.respects->tuple(f.respects->TupleIds()[0]);
  Check(survivor.truth == Truth::kPositive &&
            survivor.item == (Item{f.obsequious, f.teacher->root()}),
        "the survivor is +(ALL obsequious, ALL teacher)");
  Check(Extension(*f.respects).value() == extension_before,
        "exactly the same extension as before");

  repro::Banner("the removal is order-sensitive done naively; topological "
                "order gives the unique minimum");
  CheckEq<size_t>(0, ConsolidateInPlace(*f.respects).value(),
                  "consolidation is idempotent");

  return repro::Finish();
}
