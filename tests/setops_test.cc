#include "algebra/setops.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/conflict.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "flat/flat_ops.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::LovesFixture;

enum class Op { kUnion, kIntersect, kDifference };

Result<HierarchicalRelation> Apply(Op op, const HierarchicalRelation& l,
                                   const HierarchicalRelation& r) {
  switch (op) {
    case Op::kUnion:
      return Union(l, r);
    case Op::kIntersect:
      return Intersect(l, r);
    case Op::kDifference:
      return Difference(l, r);
  }
  return Status::Internal("unreachable");
}

Result<FlatRelation> ApplyFlat(Op op, const FlatRelation& l,
                               const FlatRelation& r) {
  switch (op) {
    case Op::kUnion:
      return FlatUnion(l, r);
    case Op::kIntersect:
      return FlatIntersect(l, r);
    case Op::kDifference:
      return FlatDifference(l, r);
  }
  return Status::Internal("unreachable");
}

void ExpectMatchesFlat(Op op, const HierarchicalRelation& l,
                       const HierarchicalRelation& r) {
  HierarchicalRelation result = Apply(op, l, r).value();
  FlatRelation lf =
      FlatRelation::FromRows("l", l.schema(), Extension(l).value()).value();
  FlatRelation rf =
      FlatRelation::FromRows("r", r.schema(), Extension(r).value()).value();
  FlatRelation expected = ApplyFlat(op, lf, rf).value();
  EXPECT_EQ(Extension(result).value(), expected.Rows());
}

TEST(SetOpsTest, Fig10cUnionJackAndJillBetweenThemLove) {
  LovesFixture f;
  HierarchicalRelation result = Union(*f.jill, *f.jack).value();
  ASSERT_TRUE(ConsolidateInPlace(result).ok());
  // Between them: all birds — one tuple after consolidation.
  ASSERT_EQ(result.size(), 1u);
  TupleView t = result.tuple(result.TupleIds()[0]);
  EXPECT_EQ(t.truth, Truth::kPositive);
  EXPECT_EQ(t.item, (Item{f.base.bird}));
  ExpectMatchesFlat(Op::kUnion, *f.jill, *f.jack);
}

TEST(SetOpsTest, Fig10dIntersectionJackAndJillBothLove) {
  LovesFixture f;
  HierarchicalRelation result = Intersect(*f.jill, *f.jack).value();
  // Both love exactly peter.
  EXPECT_EQ(Extension(result).value(),
            (std::vector<Item>{{f.base.peter}}));
  ExpectMatchesFlat(Op::kIntersect, *f.jill, *f.jack);
}

TEST(SetOpsTest, Fig10eJillLovesButJackDoesNot) {
  LovesFixture f;
  HierarchicalRelation result = Difference(*f.jill, *f.jack).value();
  // Jill minus Jack: non-penguin birds.
  std::vector<Item> expected{{f.base.tweety}};
  EXPECT_EQ(Extension(result).value(), expected);
  ExpectMatchesFlat(Op::kDifference, *f.jill, *f.jack);
}

TEST(SetOpsTest, Fig10fJackLovesButJillDoesNot) {
  LovesFixture f;
  HierarchicalRelation result = Difference(*f.jack, *f.jill).value();
  // Jack minus Jill: penguins except peter.
  std::vector<Item> expected{{f.base.paul}, {f.base.pamela},
                             {f.base.patricia}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Extension(result).value(), expected);
  ExpectMatchesFlat(Op::kDifference, *f.jack, *f.jill);
}

TEST(SetOpsTest, IncompatibleSchemasRejected) {
  LovesFixture f;
  Database db2;
  Hierarchy* other = db2.CreateHierarchy("other").value();
  (void)other;
  HierarchicalRelation* r =
      db2.CreateRelation("r", {{"who", "other"}}).value();
  EXPECT_TRUE(Union(*f.jill, *r).status().IsInvalidArgument());
}

TEST(SetOpsTest, UnionWithSelfIsIdentityOnExtension) {
  LovesFixture f;
  HierarchicalRelation result = Union(*f.jill, *f.jill).value();
  EXPECT_EQ(Extension(result).value(), Extension(*f.jill).value());
}

TEST(SetOpsTest, DifferenceWithSelfIsEmpty) {
  LovesFixture f;
  HierarchicalRelation result = Difference(*f.jill, *f.jill).value();
  EXPECT_TRUE(Extension(result).value().empty());
}

TEST(SetOpsTest, IntersectionOfOverlappingIncomparableClasses) {
  // R: A+, S: B+ with overlap class M: intersection is exactly M's
  // extension — the case that requires cross MCD candidates.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId m = h->AddClass("m", a).value();
  ASSERT_TRUE(h->AddEdge(b, m).ok());
  NodeId x = h->AddInstance(Value::String("x"), m).value();
  NodeId ya = h->AddInstance(Value::String("ya"), a).value();
  NodeId yb = h->AddInstance(Value::String("yb"), b).value();
  (void)ya;
  (void)yb;
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  HierarchicalRelation* s = db.CreateRelation("s", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(s->Insert({b}, Truth::kPositive).ok());
  HierarchicalRelation result = Intersect(*r, *s).value();
  EXPECT_EQ(Extension(result).value(), (std::vector<Item>{{x}}));
  ExpectMatchesFlat(Op::kIntersect, *r, *s);
}

TEST(SetOpsTest, CandidateCapNamesTheSetOperation) {
  // R: A+, S: B+ over an overlap class M: the two stored items close to
  // three under maximal common descendants, one past a cap of 2.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId m = h->AddClass("m", a).value();
  ASSERT_TRUE(h->AddEdge(b, m).ok());
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "d"}}).value();
  HierarchicalRelation* s = db.CreateRelation("s", {{"v", "d"}}).value();
  ASSERT_TRUE(r->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(s->Insert({b}, Truth::kPositive).ok());
  SetOpOptions options;
  options.max_items = 2;
  Status status = Union(*r, *s, options).status();
  EXPECT_TRUE(status.IsResourceExhausted()) << status;
  EXPECT_EQ(status.message(), "set operation 'union' exceeds 2 candidate items");
  status = Intersect(*r, *s, options).status();
  EXPECT_EQ(status.message(),
            "set operation 'intersect' exceeds 2 candidate items");
  status = Difference(*r, *s, options).status();
  EXPECT_EQ(status.message(),
            "set operation 'difference' exceeds 2 candidate items");
  options.max_items = 3;
  EXPECT_TRUE(Intersect(*r, *s, options).ok());
}

TEST(SetOpsTest, AttributeNamesMayDifferWhenDomainsMatch) {
  LovesFixture f;
  HierarchicalRelation* renamed =
      f.base.db.CreateRelation("renamed", {{"beast", "animal"}}).value();
  ASSERT_TRUE(renamed->Insert({f.base.canary}, Truth::kPositive).ok());
  EXPECT_TRUE(Union(*f.jill, *renamed).ok());
}

TEST(SetOpsTest, MatchesFlatOnRandomDatabasePairs) {
  for (uint64_t seed = 700; seed < 720; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_classes = 8;
    options.num_instances = 10;
    options.num_tuples = 6;
    testing::RandomDatabase rdb(seed, options);
    // Build a second relation over the same hierarchy.
    Database& db = rdb.db();
    HierarchicalRelation* s =
        db.CreateRelation("s", {{"a0", "domain0"}}).value();
    Random rng(seed * 31 + 7);
    std::vector<NodeId> nodes = rdb.hierarchy(0)->Nodes();
    for (int i = 0; i < 5; ++i) {
      Item item{nodes[rng.Index(nodes.size())]};
      Truth truth =
          rng.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive;
      (void)s->Insert(item, truth);
    }
    // Keep s consistent: drop tuples until CheckAmbiguity passes.
    while (!CheckAmbiguity(*s).ok()) {
      std::vector<TupleId> ids = s->TupleIds();
      ASSERT_FALSE(ids.empty());
      ASSERT_TRUE(s->Erase(ids.back()).ok());
    }
    ExpectMatchesFlat(Op::kUnion, *rdb.relation(), *s);
    ExpectMatchesFlat(Op::kIntersect, *rdb.relation(), *s);
    ExpectMatchesFlat(Op::kDifference, *rdb.relation(), *s);
    ExpectMatchesFlat(Op::kDifference, *s, *rdb.relation());
    ASSERT_TRUE(db.DropRelation("s").ok());
  }
}

}  // namespace
}  // namespace hirel
