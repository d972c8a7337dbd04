#include "algebra/aggregate.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/database.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/explicate.h"
#include "obs/query_stats.h"
#include "reference_aggregate.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::ElephantFixture;
using testing::FlyingFixture;

TEST(AggregateTest, CountExtension) {
  FlyingFixture f;
  EXPECT_EQ(CountExtension(*f.flies).value(), 4u);
  f.flies->Clear();
  EXPECT_EQ(CountExtension(*f.flies).value(), 0u);
}

TEST(AggregateTest, NumericAggregates) {
  ElephantFixture f;
  // ext(enclosure) = {(clyde, 3000), (appu, 2000)}.
  EXPECT_DOUBLE_EQ(
      Aggregate(*f.enclosure, 1, AggregateKind::kSum).value(), 5000.0);
  EXPECT_DOUBLE_EQ(
      Aggregate(*f.enclosure, 1, AggregateKind::kAvg).value(), 2500.0);
  EXPECT_DOUBLE_EQ(
      Aggregate(*f.enclosure, 1, AggregateKind::kMin).value(), 2000.0);
  EXPECT_DOUBLE_EQ(
      Aggregate(*f.enclosure, 1, AggregateKind::kMax).value(), 3000.0);
}

TEST(AggregateTest, EmptyExtensionRules) {
  ElephantFixture f;
  f.enclosure->Clear();
  EXPECT_DOUBLE_EQ(
      Aggregate(*f.enclosure, 1, AggregateKind::kSum).value(), 0.0);
  EXPECT_TRUE(Aggregate(*f.enclosure, 1, AggregateKind::kAvg).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Aggregate(*f.enclosure, 1, AggregateKind::kMin).status()
                  .IsInvalidArgument());
}

TEST(AggregateTest, NonNumericAttributeRejected) {
  ElephantFixture f;
  // The color attribute holds strings.
  EXPECT_TRUE(Aggregate(*f.colors, 1, AggregateKind::kSum).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Aggregate(*f.colors, 9, AggregateKind::kSum).status()
                  .IsInvalidArgument());
}

TEST(AggregateTest, RollUpByGivenClasses) {
  FlyingFixture f;
  // Flyers per class: birds 4, penguins 3, afp 3, canaries 1.
  std::vector<RollUpRow> rows =
      RollUp(*f.flies, 0, {f.bird, f.penguin, f.afp, f.canary}).value();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].count, 4u);
  EXPECT_EQ(rows[1].count, 3u);
  EXPECT_EQ(rows[2].count, 3u);
  EXPECT_EQ(rows[3].count, 1u);
}

TEST(AggregateTest, RollUpTopLevel) {
  FlyingFixture f;
  // The root's only child is bird: one bucket with all 4 flyers.
  std::vector<RollUpRow> rows = RollUpTopLevel(*f.flies, 0).value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].group, f.bird);
  EXPECT_EQ(rows[0].count, 4u);
}

TEST(AggregateTest, OverlappingGroupsCountTwice) {
  FlyingFixture f;
  // patricia sits under both galapagos and afp.
  std::vector<RollUpRow> rows =
      RollUp(*f.flies, 0, {f.galapagos, f.afp}).value();
  // galapagos flyers: patricia. afp flyers: pamela, patricia, peter.
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[1].count, 3u);
}

TEST(AggregateTest, RollUpToStringRendersNames) {
  FlyingFixture f;
  std::vector<RollUpRow> rows = RollUpTopLevel(*f.flies, 0).value();
  std::string s = RollUpToString(*f.flies, 0, rows);
  EXPECT_NE(s.find("bird: 4"), std::string::npos);
}

TEST(AggregateTest, RollUpValidatesGroups) {
  FlyingFixture f;
  EXPECT_TRUE(RollUp(*f.flies, 0, {kInvalidNode}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RollUp(*f.flies, 7, {f.bird}).status().IsInvalidArgument());
}

TEST(AggregateTest, CountRespectsExceptions) {
  ElephantFixture f;
  // color_of extension: clyde dappled, appu white -> 2 rows, not the 6 the
  // class-level tuples might suggest.
  EXPECT_EQ(CountExtension(*f.colors).value(), 2u);
}


// ----- Differential oracle: the claim sweep against explication -------------

template <typename T>
void ExpectSame(const Result<T>& got, const Result<T>& want,
                const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  if constexpr (std::is_same_v<T, std::vector<RollUpRow>>) {
    ASSERT_EQ(got->size(), want->size()) << what;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].group, (*want)[i].group) << what;
      EXPECT_EQ((*got)[i].count, (*want)[i].count) << what << " group " << i;
    }
  } else {
    // Sums too: both sides fold the same values in the same order.
    EXPECT_EQ(*got, *want) << what;
  }
}

/// Atoms a full explication claims, positive and negative: the count the
/// max_rows limit applies to. Fails where explication fails.
Result<size_t> ClaimedAtoms(const HierarchicalRelation& relation) {
  ExplicateOptions options;
  options.consolidate_after = false;
  HIREL_ASSIGN_OR_RETURN(HierarchicalRelation claimed,
                         Explicate(relation, {}, options));
  return claimed.size();
}

/// Every kernel against its reference, with and without a pre-built
/// graph, and at max_rows limits around the claimed-atom count.
void ExpectMatchesReference(const HierarchicalRelation& relation,
                            const std::string& label) {
  const Schema& schema = relation.schema();
  const SubsumptionGraph graph = BuildSubsumptionGraph(relation);
  const Result<size_t> explicated = ClaimedAtoms(relation);
  const size_t claimed = explicated.ok() ? *explicated : 0;
  std::vector<size_t> limits = {10'000'000, 0, 1, 2, claimed / 2, claimed};
  if (claimed > 0) limits.push_back(claimed - 1);
  for (const SubsumptionGraph* g : {&graph, (const SubsumptionGraph*)nullptr}) {
    for (size_t max_rows : limits) {
      AggregateOptions options;
      options.graph = g;
      options.max_rows = max_rows;
      const std::string what =
          StrCat(label, g != nullptr ? " cached" : " uncached", " max_rows=",
                 max_rows);
      AggregateStats stats;
      options.stats = &stats;
      ExpectSame(CountExtension(relation, options),
                 testing::ReferenceCountExtension(relation, options),
                 what + " COUNT");
      if (explicated.ok() && max_rows >= claimed) {
        EXPECT_EQ(stats.claimed, claimed) << what;
        EXPECT_EQ(stats.tuples, relation.size()) << what;
      }
      for (size_t attr = 0; attr <= schema.size(); ++attr) {
        const std::string at = StrCat(what, " attr=", attr);
        ExpectSame(RollUpTopLevel(relation, attr, options),
                   testing::ReferenceRollUpTopLevel(relation, attr, options),
                   at + " COUNT BY");
        if (attr < schema.size()) {
          std::vector<NodeId> groups = schema.hierarchy(attr)->Nodes();
          ExpectSame(RollUp(relation, attr, groups, options),
                     testing::ReferenceRollUp(relation, attr, groups, options),
                     at + " ROLLUP all nodes");
        }
        for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                                   AggregateKind::kMin, AggregateKind::kMax}) {
          ExpectSame(Aggregate(relation, attr, kind, options),
                     testing::ReferenceAggregate(relation, attr, kind,
                                                 options),
                     StrCat(at, " kind=", static_cast<int>(kind)));
        }
      }
    }
  }
}

/// Random preference edges; the ones that would close a cycle are
/// rejected by the hierarchy and skipped.
void AddRandomPreferences(Hierarchy* h, Random& rng, size_t count) {
  std::vector<NodeId> nodes = h->Nodes();
  for (size_t i = 0; i < count; ++i) {
    (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                               nodes[rng.Index(nodes.size())]);
  }
}

struct OracleCase {
  uint64_t seed;
  size_t attributes;
  double extra_parent_p;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", " << c.attributes << " attribute(s), "
      << "extra_parent_p " << c.extra_parent_p;
}

class AggregateOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(AggregateOracle, ConsistentRandomDatabasesMatchExplicate) {
  const OracleCase& c = GetParam();
  testing::RandomFixtureOptions options;
  options.num_attributes = c.attributes;
  options.extra_parent_p = c.extra_parent_p;
  options.num_classes = 8;
  options.num_instances = c.attributes == 3 ? 8 : 20;
  options.num_tuples = 12;
  testing::RandomDatabase rdb(c.seed, options);
  HierarchicalRelation* rel = rdb.relation();
  ExpectMatchesReference(*rel, "fresh");

  // Dead slots: erase every third live tuple.
  std::vector<TupleId> ids = rel->TupleIds();
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(rel->Erase(ids[i]).ok());
  }
  ExpectMatchesReference(*rel, "erased");

  // Preference edges reorder binding strength without changing extents.
  Random rng(c.seed * 7919 + 1);
  for (size_t a = 0; a < c.attributes; ++a) {
    AddRandomPreferences(rdb.hierarchy(a), rng, 4);
  }
  ExpectMatchesReference(*rel, "preferred");
}

/// A numeric-valued random database built with unguarded Insert: it may
/// violate the ambiguity constraint, hold classes without instances, and
/// carry preference edges. Instance values are ints and non-integral
/// doubles, so SUM/AVG depend on the folding order.
TEST_P(AggregateOracle, UnguardedNumericRelationsMatchExplicate) {
  const OracleCase& c = GetParam();
  Random rng(c.seed);
  Database db;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<Hierarchy*> hierarchies;
  for (size_t a = 0; a < c.attributes; ++a) {
    Hierarchy* h = db.CreateHierarchy(StrCat("n", a)).value();
    std::vector<NodeId> classes{h->root()};
    for (size_t k = 0; k < 7; ++k) {
      NodeId node = h->AddClass(StrCat("k", a, "_", k),
                                classes[rng.Index(classes.size())])
                        .value();
      if (rng.Bernoulli(c.extra_parent_p)) {
        (void)h->AddEdge(classes[rng.Index(classes.size())], node);
      }
      classes.push_back(node);
    }
    // Two classes stay without instances: they denote nothing.
    (void)h->AddClass(StrCat("empty", a, "_0"), classes.back());
    (void)h->AddClass(StrCat("empty", a, "_1"));
    const size_t instances = c.attributes == 3 ? 7 : 16;
    for (size_t i = 0; i < instances; ++i) {
      Value v = rng.Bernoulli(0.5)
                    ? Value::Int(rng.UniformRange(-50, 50))
                    : Value::Double(0.1 * static_cast<double>(i) + 0.37);
      Result<NodeId> node =
          h->AddInstance(v, classes[rng.Index(classes.size())]);
      if (!node.ok()) continue;  // a repeated int value
      if (rng.Bernoulli(c.extra_parent_p)) {
        (void)h->AddEdge(classes[rng.Index(classes.size())], *node);
      }
    }
    AddRandomPreferences(h, rng, 2);
    hierarchies.push_back(h);
    attributes.emplace_back(StrCat("v", a), StrCat("n", a));
  }
  HierarchicalRelation* rel = db.CreateRelation("u", attributes).value();
  for (size_t t = 0; t < 14; ++t) {
    Item item(c.attributes);
    for (size_t a = 0; a < c.attributes; ++a) {
      std::vector<NodeId> nodes = hierarchies[a]->Nodes();
      item[a] = nodes[rng.Index(nodes.size())];
    }
    (void)rel->Insert(item, rng.Bernoulli(0.4) ? Truth::kNegative
                                               : Truth::kPositive);
  }
  ExpectMatchesReference(*rel, "unguarded");
  std::vector<TupleId> ids = rel->TupleIds();
  if (!ids.empty()) {
    ASSERT_TRUE(rel->Erase(ids[ids.size() / 2]).ok());
  }
  ExpectMatchesReference(*rel, "unguarded erased");
}

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  for (size_t attributes = 1; attributes <= 3; ++attributes) {
    for (double p : {0.25, 0.5}) {
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        cases.push_back({seed * 31 + attributes, attributes, p});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AggregateOracle, ::testing::ValuesIn(OracleCases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return StrCat("a", info.param.attributes, "_p",
                    static_cast<int>(info.param.extra_parent_p * 100), "_s",
                    info.param.seed);
    });

TEST(AggregateOracleTest, SomeUnguardedRelationIsInconsistent) {
  // The unguarded cases above are only meaningful if some of them break
  // the ambiguity constraint; pin one that does.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId x = h->AddInstance(Value::Int(1), a).value();
  ASSERT_TRUE(h->AddEdge(b, x).ok());
  (void)h->AddInstance(Value::Double(2.5), b).value();
  HierarchicalRelation* rel = db.CreateRelation("r", {{"v", "d"}}).value();
  ASSERT_TRUE(rel->Insert({a}, Truth::kPositive).ok());
  ASSERT_TRUE(rel->Insert({b}, Truth::kNegative).ok());
  ASSERT_FALSE(CheckAmbiguity(*rel).ok());
  ExpectMatchesReference(*rel, "a+ b- over shared x");
}

TEST(AggregateOracleTest, UpdateShapeBrandOverlapsStockedLine) {
  // Every sku sits under a category line and under a brand, as in the
  // update workload. The asserted brand and a stocked line overlap at the
  // skus they share, which a per-tuple |ext(t)| - sum |ext(succ)|
  // subtraction would count twice.
  Database db;
  Hierarchy* h = db.CreateHierarchy("product").value();
  NodeId line0 = h->AddClass("line0").value();
  NodeId line1 = h->AddClass("line1").value();
  NodeId brands = h->AddClass("brands").value();
  NodeId brand = h->AddClass("brand", brands).value();
  NodeId other = h->AddClass("other", brands).value();
  std::vector<NodeId> skus;
  for (int i = 0; i < 12; ++i) {
    NodeId sku =
        h->AddInstance(Value::Int(i), i % 2 == 0 ? line0 : line1).value();
    ASSERT_TRUE(h->AddEdge(i % 3 == 0 ? brand : other, sku).ok());
    skus.push_back(sku);
  }
  HierarchicalRelation* stock =
      db.CreateRelation("stock", {{"item", "product"}}).value();
  ASSERT_TRUE(stock->Insert({brand}, Truth::kPositive).ok());  // ASSERT ALL brand
  ASSERT_TRUE(stock->Insert({line0}, Truth::kPositive).ok());  // stocked line
  ASSERT_TRUE(stock->Insert({skus[6]}, Truth::kNegative).ok());
  ASSERT_TRUE(stock->Insert({skus[3]}, Truth::kNegative).ok());
  ExpectMatchesReference(*stock, "update shape");
  // brand = {0, 3, 6, 9}, line0 = {0, 2, 4, 6, 8, 10}: union 8 skus, two
  // of them denied. Subtraction would give (4 - 2) + (6 - 1) = 7, because
  // sku 0 lies under both positive tuples.
  EXPECT_EQ(CountExtension(*stock).value(), 6u);
}

TEST(AggregateOracleTest, AllAtomicTwoAttributesNeedNoVisitedSet) {
  // Like the analytic workload's `available`: every tuple is atomic, so
  // each claims its own item and the hash set stays empty.
  Database db;
  Hierarchy* shop = db.CreateHierarchy("shop").value();
  Hierarchy* sku = db.CreateHierarchy("sku").value();
  std::vector<NodeId> shops, skus;
  for (int i = 0; i < 4; ++i) {
    shops.push_back(shop->AddInstance(Value::Int(100 + i)).value());
  }
  for (int i = 0; i < 9; ++i) {
    skus.push_back(sku->AddInstance(Value::Double(0.5 * i + 0.1)).value());
  }
  HierarchicalRelation* available =
      db.CreateRelation("available", {{"at", "shop"}, {"what", "sku"}})
          .value();
  for (size_t i = 0; i < shops.size(); ++i) {
    for (size_t j = 0; j < skus.size(); ++j) {
      if ((i + j) % 3 == 0) continue;
      ASSERT_TRUE(available
                      ->Insert({shops[i], skus[j]}, (i * j) % 4 == 1
                                                        ? Truth::kNegative
                                                        : Truth::kPositive)
                      .ok());
    }
  }
  ExpectMatchesReference(*available, "all atomic");
  AggregateStats stats;
  AggregateOptions options;
  options.stats = &stats;
  obs::ResetTrackedPeak();
  const uint64_t before = obs::TrackedPeakBytes();
  ASSERT_TRUE(CountExtension(*available, options).ok());
  EXPECT_EQ(obs::TrackedPeakBytes(), before);
  EXPECT_EQ(stats.claimed, available->size());
  EXPECT_EQ(stats.atoms, available->size());
}

TEST(AggregateOracleTest, MaxRowsOverflowFailsIdentically) {
  FlyingFixture f;
  // flies claims 5 atoms (4 positive, 1 negative): the limit counts both.
  ASSERT_EQ(ClaimedAtoms(*f.flies).value(), 5u);
  for (size_t max_rows = 0; max_rows <= 6; ++max_rows) {
    AggregateOptions options;
    options.max_rows = max_rows;
    Result<size_t> got = CountExtension(*f.flies, options);
    ExpectSame(got, testing::ReferenceCountExtension(*f.flies, options),
               StrCat("max_rows=", max_rows));
    if (max_rows < 5) {
      EXPECT_TRUE(got.status().IsResourceExhausted());
      EXPECT_EQ(got.status().message(),
                StrCat("explication of 'flies' exceeds ", max_rows,
                       " tuples"));
    } else {
      EXPECT_EQ(got.value(), 4u);
    }
  }
}

TEST(AggregateOracleTest, DeadInstanceFailsLikeTheExplicatedInsert) {
  // Eliminating a node straight on the hierarchy (the catalog refuses
  // while a tuple references it) leaves a tuple on a dead instance; the
  // explicated insert rejects it, and so must the sweep.
  FlyingFixture f;
  ASSERT_TRUE(f.animal->EliminateNode(f.peter).ok());
  ExpectMatchesReference(*f.flies, "dead instance");
  EXPECT_TRUE(CountExtension(*f.flies).status().IsInvalidArgument());

  // Two attributes: a class tuple enumerates an atom holding the dead
  // instance that an atomic tuple of the store sits on. Tuples on a dead
  // node have no graph edges, so ascending ids fix the sweep order:
  // (ca, b1), then (a2, b2), then (a1, b1). At max_rows = 1 the class
  // tuple's claim must fail on the dead node before (a2, b2) fills the
  // limit.
  Database db;
  Hierarchy* a = db.CreateHierarchy("a").value();
  Hierarchy* b = db.CreateHierarchy("b").value();
  NodeId ca = a->AddClass("ca").value();
  NodeId a1 = a->AddInstance(Value::Int(1), ca).value();
  NodeId a2 = a->AddInstance(Value::Int(2)).value();
  NodeId b1 = b->AddInstance(Value::Int(3)).value();
  NodeId b2 = b->AddInstance(Value::Int(4)).value();
  HierarchicalRelation* r =
      db.CreateRelation("r", {{"x", "a"}, {"y", "b"}}).value();
  ASSERT_TRUE(r->Insert({a1, b1}, Truth::kNegative).ok());
  ASSERT_TRUE(r->Insert({a2, b2}, Truth::kPositive).ok());
  ASSERT_TRUE(r->Insert({ca, b1}, Truth::kPositive).ok());
  ASSERT_TRUE(b->EliminateNode(b1).ok());
  ExpectMatchesReference(*r, "dead instance, two attributes");
}

}  // namespace
}  // namespace hirel
