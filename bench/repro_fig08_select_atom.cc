// Figure 8 — "Who does John respect?": selection by an *instance*
// constant. John, an obsequious student, respects all teachers — the
// class-valued answer collapses the exception structure correctly.

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

  repro::Banner("Fig. 8: SELECT * FROM respects WHERE who = john");
  HierarchicalRelation result =
      SelectEquals(*f.respects, "who", "john").value();
  (void)ConsolidateInPlace(result).value();
  std::cout << FormatRelation(result);
  CheckEq<size_t>(1, result.size(), "a single tuple answers the query");
  TupleView t = result.tuple(result.TupleIds()[0]);
  Check(t.truth == Truth::kPositive &&
            t.item == (Item{f.john, f.teacher->root()}),
        "+(john, ALL teacher)");

  repro::Banner("contrast: SELECT ... WHERE who = mary (a generic student)");
  HierarchicalRelation mary =
      SelectEquals(*f.respects, "who", "mary").value();
  (void)ConsolidateInPlace(mary).value();
  std::cout << FormatRelation(mary);
  Check(Extension(mary).value().empty(),
        "mary is not known to respect anyone");

  repro::Banner("flat agreement");
  FlatRelation flat = FlatRelation::FromRows("ext", f.respects->schema(),
                                             Extension(*f.respects).value())
                          .value();
  Check(Extension(result).value() ==
            FlatSelectEquals(flat, 0, f.john).value().Rows(),
        "ext(select_h(R, john)) == select_flat(ext(R), john)");

  return repro::Finish();
}
