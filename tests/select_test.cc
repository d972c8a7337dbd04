#include "algebra/select.h"

#include <gtest/gtest.h>

#include "core/consolidate.h"
#include "core/explicate.h"
#include "flat/flat_ops.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::ElephantFixture;
using testing::FlyingFixture;
using testing::RespectsFixture;

/// ext(select_h(R)) must equal select_flat(ext(R)).
void ExpectSelectMatchesFlat(const HierarchicalRelation& relation,
                             size_t attr, NodeId node) {
  HierarchicalRelation selected =
      SelectEquals(relation, attr, node).value();
  std::vector<Item> hierarchical = Extension(selected).value();

  FlatRelation flat = FlatRelation::FromRows("f", relation.schema(),
                                             Extension(relation).value())
                          .value();
  FlatRelation expected = FlatSelectEquals(flat, attr, node).value();
  std::vector<Item> rows = expected.Rows();
  EXPECT_EQ(hierarchical, rows);
}

TEST(SelectTest, Fig7WhoDoObsequiousStudentsRespect) {
  RespectsFixture f;
  HierarchicalRelation result =
      SelectEquals(*f.respects, "who", "obsequious_student").value();
  ASSERT_TRUE(ConsolidateInPlace(result).ok());
  // Obsequious students respect all teachers: one positive tuple.
  ASSERT_EQ(result.size(), 1u);
  TupleView t = result.tuple(result.TupleIds()[0]);
  EXPECT_EQ(t.truth, Truth::kPositive);
  EXPECT_EQ(t.item, (Item{f.obsequious, f.teacher->root()}));
}

TEST(SelectTest, Fig8WhoDoesJohnRespect) {
  RespectsFixture f;
  HierarchicalRelation result =
      SelectEquals(*f.respects, "who", "john").value();
  ASSERT_TRUE(ConsolidateInPlace(result).ok());
  // John respects all teachers.
  ASSERT_EQ(result.size(), 1u);
  TupleView t = result.tuple(result.TupleIds()[0]);
  EXPECT_EQ(t.truth, Truth::kPositive);
  EXPECT_EQ(t.item, (Item{f.john, f.teacher->root()}));
}

TEST(SelectTest, SelectingPaulYieldsNothing) {
  FlyingFixture f;
  HierarchicalRelation result = SelectEquals(*f.flies, 0, f.paul).value();
  EXPECT_TRUE(Extension(result).value().empty());
  // After consolidation the bare negative disappears entirely.
  ASSERT_TRUE(ConsolidateInPlace(result).ok());
  EXPECT_TRUE(result.empty());
}

TEST(SelectTest, SelectingPenguinsKeepsExceptionStructure) {
  FlyingFixture f;
  HierarchicalRelation result =
      SelectEquals(*f.flies, 0, f.penguin).value();
  // Extension: the flying penguins only.
  std::vector<Item> extension = Extension(result).value();
  std::vector<Item> expected{{f.pamela}, {f.patricia}, {f.peter}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(extension, expected);
}

TEST(SelectTest, ProbeTotalIsOnePerResultTuple) {
  // Every candidate left after the MCD closure is one result tuple, and
  // its truth takes one strongest-binding computation.
  testing::LovesFixture f;
  for (NodeId node : {f.base.bird, f.base.penguin, f.base.paul}) {
    uint64_t probes = 0;
    InferenceOptions options;
    options.probe_counter = &probes;
    HierarchicalRelation result =
        SelectEquals(*f.jill, 0, node, options).value();
    EXPECT_EQ(probes, result.size()) << f.base.animal->NodeName(node);
  }
}

TEST(SelectTest, MatchesFlatSemanticsOnFixtures) {
  FlyingFixture f;
  ExpectSelectMatchesFlat(*f.flies, 0, f.bird);
  ExpectSelectMatchesFlat(*f.flies, 0, f.penguin);
  ExpectSelectMatchesFlat(*f.flies, 0, f.afp);
  ExpectSelectMatchesFlat(*f.flies, 0, f.paul);
  ExpectSelectMatchesFlat(*f.flies, 0, f.tweety);

  ElephantFixture e;
  ExpectSelectMatchesFlat(*e.colors, 0, e.royal);
  ExpectSelectMatchesFlat(*e.colors, 0, e.appu);
  ExpectSelectMatchesFlat(*e.colors, 1, e.grey);
  ExpectSelectMatchesFlat(*e.enclosure, 0, e.indian);
}

TEST(SelectTest, SelectionOnOverlappingClass) {
  FlyingFixture f;
  // A class overlapping (but incomparable with) asserted classes: water
  // birds containing paul and patricia.
  NodeId water = f.animal->AddClass("water_bird", f.bird).value();
  ASSERT_TRUE(f.animal->AddEdge(water, f.paul).ok());
  ASSERT_TRUE(f.animal->AddEdge(water, f.patricia).ok());
  ExpectSelectMatchesFlat(*f.flies, 0, water);
}

TEST(SelectTest, NameBasedLookupErrors) {
  RespectsFixture f;
  EXPECT_TRUE(SelectEquals(*f.respects, "nope", "john").status()
                  .IsNotFound());
  EXPECT_TRUE(SelectEquals(*f.respects, "who", "nobody").status()
                  .IsNotFound());
  EXPECT_TRUE(SelectEquals(*f.respects, 9, f.john).status()
                  .IsInvalidArgument());
}

TEST(SelectTest, SelectWherePredicateOnScalars) {
  ElephantFixture f;
  // Enclosures of at least 2500 sqft.
  HierarchicalRelation result =
      SelectWhere(*f.enclosure, 1,
                  [](const Value& v) { return v.AsInt() >= 2500; })
          .value();
  std::vector<Item> extension = Extension(result).value();
  // elephants (generic), royals, africans at 3000; indians are at 2000.
  for (const Item& item : extension) {
    EXPECT_EQ(item[1], f.sz3000);
  }
  FlatRelation flat = FlatRelation::FromRows("f", f.enclosure->schema(),
                                             Extension(*f.enclosure).value())
                          .value();
  FlatRelation expected =
      FlatSelectWhere(flat, 1,
                      [](const Value& v) { return v.AsInt() >= 2500; })
          .value();
  EXPECT_EQ(extension, expected.Rows());
}

TEST(SelectTest, SelectWhereOnStringValues) {
  FlyingFixture f;
  HierarchicalRelation result =
      SelectWhere(*f.flies, 0,
                  [](const Value& v) { return v.AsString()[0] == 'p'; })
          .value();
  std::vector<Item> extension = Extension(result).value();
  std::vector<Item> expected{{f.pamela}, {f.patricia}, {f.peter}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(extension, expected);
}

}  // namespace
}  // namespace hirel
