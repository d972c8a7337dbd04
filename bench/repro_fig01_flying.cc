// Figure 1 — (a) the animal class hierarchy, (b) the hierarchical
// FliesRelation, (c) its subsumption graph, and (d) the tuple-binding graph
// for Patricia — plus every verdict the surrounding prose states.

#include <iostream>

#include "core/binding.h"
#include "core/inference.h"
#include "core/subsumption.h"
#include "io/text_dump.h"
#include "repro_util.h"
#include "testing/fixtures.h"

using namespace hirel;
using repro::Check;
using repro::CheckEq;

int main() {
  testing::FlyingFixture f;

  repro::Banner("Fig. 1a: class hierarchy");
  std::cout << FormatHierarchy(*f.animal);
  CheckEq<size_t>(6, f.animal->num_classes(), "6 classes incl. the domain");
  CheckEq<size_t>(5, f.animal->num_instances(), "5 instances");

  repro::Banner("Fig. 1b: hierarchical relation (flying creatures)");
  std::cout << FormatRelation(*f.flies);
  CheckEq<size_t>(4, f.flies->size(),
                  "4 stored tuples: +ALL bird, -ALL penguin, +ALL afp, "
                  "+peter");

  repro::Banner("Fig. 1c: subsumption graph");
  SubsumptionGraph graph = BuildSubsumptionGraph(*f.flies);
  std::cout << SubsumptionGraphToString(*f.flies, graph);
  Check(graph.nodes.size() == 4 && graph.sources.size() == 1,
        "chain bird -> penguin -> afp -> peter under the universal tuple");

  repro::Banner("Fig. 1d: tuple-binding graph for Patricia");
  TupleBindingGraph tbg = BuildTupleBindingGraph(*f.flies, {f.patricia});
  for (size_t i = 0; i < tbg.nodes.size(); ++i) {
    TupleView t = f.flies->tuple(tbg.nodes[i]);
    std::cout << "  node: " << TruthToString(t.truth) << " "
              << ItemToString(f.flies->schema(), t.item) << "\n";
  }
  CheckEq<size_t>(3, tbg.nodes.size(), "3 applicable tuples for Patricia");
  CheckEq<size_t>(1, tbg.immediate_predecessors.size(),
                  "single immediate predecessor (+ALL afp)");

  repro::Banner("prose verdicts of Section 2.1");
  auto verdict = [&](NodeId who) {
    return InferTruth(*f.flies, {who}).value();
  };
  CheckEq(Truth::kPositive, verdict(f.tweety), "Tweety flies");
  CheckEq(Truth::kNegative, verdict(f.paul),
          "Paul (galapagos penguin) does not fly");
  CheckEq(Truth::kPositive, verdict(f.pamela),
          "Pamela (amazing flying penguin) flies");
  CheckEq(Truth::kPositive, verdict(f.patricia),
          "Patricia (afp AND galapagos) flies — multiple inheritance, no "
          "conflict");
  CheckEq(Truth::kPositive, verdict(f.peter),
          "Peter's own tuple overrides all others");

  return repro::Finish();
}
