#include "core/explicate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/inference.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::ElephantFixture;
using testing::FlyingFixture;
using testing::RespectsFixture;

TEST(ExplicateTest, FullExplicationOfFlies) {
  FlyingFixture f;
  HierarchicalRelation flat = Explicate(*f.flies).value();
  // Extension: tweety, pamela, patricia, peter (paul is cancelled).
  std::vector<Item> items;
  for (TupleId id : flat.TupleIds()) {
    EXPECT_EQ(flat.tuple(id).truth, Truth::kPositive);
    EXPECT_TRUE(ItemIsAtomic(flat.schema(), flat.tuple(id).item));
    items.push_back(flat.ItemAt(id).ToItem());
  }
  std::sort(items.begin(), items.end());
  std::vector<Item> expected{
      {f.tweety}, {f.pamela}, {f.patricia}, {f.peter}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(items, expected);
}

TEST(ExplicateTest, KeepNegativesWhenRequested) {
  FlyingFixture f;
  ExplicateOptions options;
  options.consolidate_after = false;
  HierarchicalRelation flat = Explicate(*f.flies, {}, options).value();
  // All five instances appear, paul negatively.
  EXPECT_EQ(flat.size(), 5u);
  EXPECT_EQ(flat.TruthAt({f.paul}), Truth::kNegative);
  EXPECT_EQ(flat.TruthAt({f.tweety}), Truth::kPositive);
}

TEST(ExplicateTest, MatchesInferenceOnEveryAtom) {
  FlyingFixture f;
  HierarchicalRelation flat = Explicate(*f.flies).value();
  for (NodeId atom : f.animal->Instances()) {
    bool in_flat = flat.FindItem({atom}).has_value();
    EXPECT_EQ(in_flat, Holds(*f.flies, {atom}).value())
        << f.animal->NodeName(atom);
  }
}

TEST(ExplicateTest, PartialExplicationKeepsOtherAttributesHierarchical) {
  ElephantFixture f;
  // Explicate only the animal attribute of color_of.
  size_t animal_attr = f.colors->schema().IndexOf("animal").value();
  HierarchicalRelation partial =
      Explicate(*f.colors, {animal_attr}).value();
  for (TupleId id : partial.TupleIds()) {
    TupleView t = partial.tuple(id);
    EXPECT_TRUE(f.animal->is_instance(t.item[0]));
  }
  // Negated tuples are NOT redundant in a partial explication and stay.
  bool has_negative = false;
  for (TupleId id : partial.TupleIds()) {
    if (partial.tuple(id).truth == Truth::kNegative) has_negative = true;
  }
  EXPECT_TRUE(has_negative);
  // Clyde's rows: dappled+ and white-/grey- (via explicit tuples).
  EXPECT_EQ(partial.TruthAt({f.clyde, f.dappled}), Truth::kPositive);
  EXPECT_EQ(partial.TruthAt({f.clyde, f.white}), Truth::kNegative);
}

TEST(ExplicateTest, ExtensionOfColors) {
  ElephantFixture f;
  std::vector<Item> extension = Extension(*f.colors).value();
  std::vector<Item> expected{{f.clyde, f.dappled}, {f.appu, f.white}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(extension, expected);
}

TEST(ExplicateTest, EmptyClassDenotesNothing) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  HierarchicalRelation flat = Explicate(*r).value();
  EXPECT_TRUE(flat.empty());
  EXPECT_TRUE(Extension(*r).value().empty());
}

TEST(ExplicateTest, ResultSizeCapEnforced) {
  FlyingFixture f;
  ExplicateOptions options;
  options.max_result_tuples = 2;
  Result<HierarchicalRelation> r = Explicate(*f.flies, {}, options);
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(r.status().message(), "explication of 'flies' exceeds 2 tuples");

  // The cap counts explicated tuples before the closing consolidate: all
  // five instances (paul negatively) fit in five, not in four.
  options.max_result_tuples = 5;
  EXPECT_TRUE(Explicate(*f.flies, {}, options).ok());
  options.max_result_tuples = 4;
  EXPECT_EQ(Explicate(*f.flies, {}, options).status().message(),
            "explication of 'flies' exceeds 4 tuples");
}

TEST(ExplicateTest, InvalidAttributePosition) {
  FlyingFixture f;
  Result<HierarchicalRelation> r = Explicate(*f.flies, {7});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ExplicateTest, MultiAttributeExtension) {
  RespectsFixture f;
  std::vector<Item> extension = Extension(*f.respects).value();
  // john (obsequious) respects everyone; mary respects nobody.
  std::vector<Item> expected{{f.john, f.jim}, {f.john, f.wendy}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(extension, expected);
}

TEST(ExplicateTest, ExplicationIsIdempotentOnExtensions) {
  FlyingFixture f;
  HierarchicalRelation once = Explicate(*f.flies).value();
  HierarchicalRelation twice = Explicate(once).value();
  EXPECT_EQ(once.size(), twice.size());
  for (TupleId id : once.TupleIds()) {
    EXPECT_TRUE(twice.FindItem(once.tuple(id).item).has_value());
  }
}

TEST(ExplicateTest, ExtensionMatchesBruteForceOnRandomDatabases) {
  for (uint64_t seed = 100; seed < 125; ++seed) {
    testing::RandomDatabase rdb(seed, {});
    HierarchicalRelation* r = rdb.relation();
    std::vector<Item> extension = Extension(*r).value();
    // Brute force: infer every atom.
    std::vector<Item> brute;
    for (NodeId atom : rdb.hierarchy(0)->Instances()) {
      Result<bool> holds = Holds(*r, {atom});
      ASSERT_TRUE(holds.ok()) << "seed " << seed;
      if (*holds) brute.push_back({atom});
    }
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(extension, brute) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hirel
