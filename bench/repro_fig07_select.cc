// Figure 7 — "Who do obsequious students respect?": a selection on the
// Respects relation of Fig. 3 with a class constant. The answer the figure
// gives: obsequious students respect all teachers.

#include <iostream>

#include "algebra/select.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "flat/flat_ops.h"
#include "io/text_dump.h"
#include "repro_util.h"
#include "testing/fixtures.h"

using namespace hirel;
using repro::Check;
using repro::CheckEq;

int main() {
  testing::RespectsFixture f(/*with_resolver=*/true);

  repro::Banner("Fig. 7: SELECT * FROM respects WHERE who = ALL obsequious");
  HierarchicalRelation result =
      SelectEquals(*f.respects, "who", "obsequious_student").value();
  (void)ConsolidateInPlace(result).value();
  std::cout << FormatRelation(result);
  CheckEq<size_t>(1, result.size(), "a single tuple answers the query");
  TupleView t = result.tuple(result.TupleIds()[0]);
  Check(t.truth == Truth::kPositive &&
            t.item == (Item{f.obsequious, f.teacher->root()}),
        "+(ALL obsequious_student, ALL teacher)");

  repro::Banner("the selection agrees with the flat semantics");
  FlatRelation flat = FlatRelation::FromRows("ext", f.respects->schema(),
                                             Extension(*f.respects).value())
                          .value();
  FlatRelation expected = FlatSelectEquals(flat, 0, f.obsequious).value();
  Check(Extension(result).value() == expected.Rows(),
        "ext(select_h(R)) == select_flat(ext(R))");
  CheckEq<size_t>(2, expected.size(), "john x {jim, wendy} in the flat view");

  return repro::Finish();
}
