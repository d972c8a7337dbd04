#include "core/consolidate.h"

#include <gtest/gtest.h>

#include "core/explicate.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::FlyingFixture;
using testing::RespectsFixture;

TEST(ConsolidateTest, Fig6RespectsConsolidation) {
  RespectsFixture f;
  // "the tuple stating that students do not respect incoherent teachers is
  // redundant ... Thus the tuple stating that obsequious students respect
  // incoherent teachers is also found redundant ... The final result ...
  // has exactly the same extension ... and yet has fewer tuples."
  std::vector<Item> extension_before = Extension(*f.respects).value();
  size_t removed = ConsolidateInPlace(*f.respects).value();
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(f.respects->size(), 1u);
  TupleId survivor = f.respects->TupleIds()[0];
  EXPECT_EQ(f.respects->tuple(survivor).item,
            (Item{f.obsequious, f.teacher->root()}));
  EXPECT_EQ(f.respects->tuple(survivor).truth, Truth::kPositive);
  EXPECT_EQ(Extension(*f.respects).value(), extension_before);
}

TEST(ConsolidateTest, FlyingRelationDropsOnlyPeter) {
  FlyingFixture f;
  // peter+ is redundant (immediate predecessor afp+ agrees); bird+,
  // penguin-, afp+ all flip truth values and must stay.
  std::vector<Item> extension_before = Extension(*f.flies).value();
  size_t removed = ConsolidateInPlace(*f.flies).value();
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(f.flies->size(), 3u);
  EXPECT_FALSE(f.flies->FindItem({f.peter}).has_value());
  EXPECT_EQ(Extension(*f.flies).value(), extension_before);
}

TEST(ConsolidateTest, BareNegativeIsRedundant) {
  // "A negated tuple without a (positive) tuple as a predecessor in the
  // relation subsumption graph is redundant" (universal negated tuple).
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kNegative).ok());
  EXPECT_EQ(ConsolidateInPlace(*r).value(), 1u);
  EXPECT_TRUE(r->empty());
}

TEST(ConsolidateTest, TopLevelPositiveIsKept) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  EXPECT_EQ(ConsolidateInPlace(*r).value(), 0u);
  EXPECT_EQ(r->size(), 1u);
}

TEST(ConsolidateTest, CascadingRedundancy) {
  // a+ > b+ > c+: both b and c are redundant once processed top-down.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b", a).value();
  NodeId c = h->AddClass("c", b).value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({b}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({c}, Truth::kPositive).ok());
  EXPECT_EQ(ConsolidateInPlace(*r).value(), 2u);
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->FindItem({a}).has_value());
}

TEST(ConsolidateTest, Idempotent) {
  RespectsFixture f;
  ASSERT_TRUE(ConsolidateInPlace(*f.respects).ok());
  size_t size_after_first = f.respects->size();
  EXPECT_EQ(ConsolidateInPlace(*f.respects).value(), 0u);
  EXPECT_EQ(f.respects->size(), size_after_first);
}

TEST(ConsolidateTest, FunctionalFormLeavesArgumentUntouched) {
  RespectsFixture f;
  HierarchicalRelation consolidated = Consolidated(*f.respects).value();
  EXPECT_EQ(f.respects->size(), 3u);
  EXPECT_EQ(consolidated.size(), 1u);
}

TEST(ConsolidateTest, IsRedundantProbesSingleTuples) {
  FlyingFixture f;
  std::optional<TupleId> peter = f.flies->FindItem({f.peter});
  std::optional<TupleId> penguin = f.flies->FindItem({f.penguin});
  ASSERT_TRUE(peter.has_value() && penguin.has_value());
  EXPECT_TRUE(IsRedundant(*f.flies, *peter).value());
  EXPECT_FALSE(IsRedundant(*f.flies, *penguin).value());
  ASSERT_TRUE(f.flies->Erase(*peter).ok());
  EXPECT_TRUE(IsRedundant(*f.flies, *peter).status().IsNotFound());
}

TEST(ConsolidateTest, UnionCoverIsNotEliminated) {
  // Fig. 5: C subset of A union B, with neither A nor B dominating C.
  // "we cannot consider a tuple regarding C a redundant assertion, given
  // tuples regarding sets A and B."
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId c = h->AddClass("c").value();
  // c's members are split between a and b.
  NodeId ca = h->AddClass("ca", c).value();
  NodeId cb = h->AddClass("cb", c).value();
  ASSERT_TRUE(h->AddEdge(a, ca).ok());
  ASSERT_TRUE(h->AddEdge(b, cb).ok());
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({b}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({c}, Truth::kPositive).ok());
  // c is incomparable with both a and b, so it is not redundant even
  // though ext(c) is covered by ext(a) union ext(b).
  EXPECT_EQ(ConsolidateInPlace(*r).value(), 0u);
  EXPECT_EQ(r->size(), 3u);
}

TEST(ConsolidateTest, PartitionedSubsetKeptConservatively) {
  // Section 3.2's final case: C partitioned into A and B with tuples tA
  // and tB: tC is "always overridden" yet still not considered redundant.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId c = h->AddClass("c").value();
  NodeId a = h->AddClass("a", c).value();
  NodeId b = h->AddClass("b", c).value();
  (void)h->AddInstance(Value::String("x"), a).value();
  (void)h->AddInstance(Value::String("y"), b).value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kNegative).ok());
  ASSERT_TRUE(r->Insert({b}, Truth::kNegative).ok());
  ASSERT_TRUE(r->Insert({c}, Truth::kPositive).ok());
  EXPECT_EQ(ConsolidateInPlace(*r).value(), 0u);
  EXPECT_EQ(r->size(), 3u);
}

TEST(ConsolidateTest, ProbeTotalIsOnePerTuple) {
  // The sweep computes one strongest binding per tuple, removed or not,
  // and EXPLAIN ANALYZE reports exactly that count.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_classes = 16;
    options.num_instances = 40;
    options.num_tuples = 24;
    testing::RandomDatabase rdb(seed, options);
    uint64_t probes = 0;
    InferenceOptions inference;
    inference.probe_counter = &probes;
    ASSERT_TRUE(Consolidated(*rdb.relation(), inference).ok())
        << "seed " << seed;
    EXPECT_EQ(probes, rdb.relation()->size()) << "seed " << seed;
  }
}

TEST(ConsolidateTest, ExtensionPreservedOnRandomDatabases) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_tuples = 10;
    testing::RandomDatabase rdb(seed, options);
    std::vector<Item> before = Extension(*rdb.relation()).value();
    ASSERT_TRUE(ConsolidateInPlace(*rdb.relation()).ok()) << "seed " << seed;
    std::vector<Item> after = Extension(*rdb.relation()).value();
    EXPECT_EQ(before, after) << "seed " << seed;
    // Idempotence.
    EXPECT_EQ(ConsolidateInPlace(*rdb.relation()).value(), 0u)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace hirel
