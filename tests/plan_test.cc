// Property tests for the plan layer: on randomized databases and randomized
// query trees, the rewriter must preserve extension semantics — the
// optimized plan and the unoptimized plan denote the same flat relation —
// under every preemption mode, and repeated execution through the
// subsumption cache must not change any result.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/explicate.h"
#include "core/tuple_store.h"
#include "hql/executor.h"
#include "plan/execute.h"
#include "plan/explain.h"
#include "plan/plan_node.h"
#include "plan/rewrite.h"
#include "testing/fixtures.h"

namespace hirel {
namespace plan {
namespace {

constexpr PreemptionMode kModes[] = {
    PreemptionMode::kOffPath, PreemptionMode::kOnPath, PreemptionMode::kNone};

/// Prunes trailing tuples until `r` satisfies the ambiguity constraint
/// under every preemption mode — inference inside a plan must never hit a
/// conflict regardless of which mode a sample runs with.
void MakeUnambiguousEverywhere(HierarchicalRelation& r) {
  auto ambiguous = [&r]() {
    for (PreemptionMode mode : kModes) {
      InferenceOptions options;
      options.preemption = mode;
      if (!CheckAmbiguity(r, options).ok()) return true;
    }
    return false;
  };
  while (ambiguous()) {
    std::vector<TupleId> ids = r.TupleIds();
    ASSERT_FALSE(ids.empty());
    ASSERT_TRUE(r.Erase(ids.back()).ok());
  }
}

/// A second consistent relation over the same single-attribute domain, so
/// random trees can combine two compatible leaves.
HierarchicalRelation* MakeSecondRelation(testing::RandomDatabase& rdb,
                                         uint64_t seed) {
  HierarchicalRelation* s =
      rdb.db().CreateRelation("s", {{"a0", "domain0"}}).value();
  Random rng(seed);
  std::vector<NodeId> nodes = rdb.hierarchy(0)->Nodes();
  for (int i = 0; i < 6; ++i) {
    Item item{nodes[rng.Index(nodes.size())]};
    Truth truth = rng.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive;
    (void)s->Insert(item, truth);
  }
  MakeUnambiguousEverywhere(*s);
  return s;
}

/// A random single-attribute plan tree. Every operator here preserves the
/// (a0: domain0) schema, so any two subtrees compose.
PlanPtr RandomTree(Random& rng, Hierarchy* h, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.3)) {
    return MakeScan(rng.Bernoulli(0.5) ? "r" : "s");
  }
  switch (rng.Index(6)) {
    case 0: {
      std::vector<NodeId> nodes = h->Nodes();
      NodeId node = nodes[rng.Index(nodes.size())];
      return MakeSelect(RandomTree(rng, h, depth - 1), 0, node, "a0",
                        h->NodeName(node));
    }
    case 1: {
      SetOpKind kind = static_cast<SetOpKind>(rng.Index(3));
      return MakeSetOp(kind, RandomTree(rng, h, depth - 1),
                       RandomTree(rng, h, depth - 1));
    }
    case 2:
      return MakeNaturalJoin(RandomTree(rng, h, depth - 1),
                             RandomTree(rng, h, depth - 1));
    case 3:
      return MakeConsolidate(RandomTree(rng, h, depth - 1));
    case 4:
      return MakeExplicate(RandomTree(rng, h, depth - 1), {},
                           /*consolidate_after=*/rng.Bernoulli(0.5));
    default:
      return MakeProject(RandomTree(rng, h, depth - 1), {0});
  }
}

std::vector<Item> ExtensionOf(const HierarchicalRelation& r,
                              const InferenceOptions& inference) {
  ExplicateOptions options;
  options.inference = inference;
  return Extension(r, options).value();
}

class PlanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanProperty, RewritesPreserveExtensionUnderAllPreemptionModes) {
  testing::RandomFixtureOptions fixture;
  fixture.num_tuples = 9;
  testing::RandomDatabase rdb(GetParam(), fixture);
  MakeUnambiguousEverywhere(*rdb.relation());
  MakeSecondRelation(rdb, GetParam() ^ 0x9e3779b9);
  Random rng(GetParam() * 2654435761u + 1);

  for (int sample = 0; sample < 12; ++sample) {
    PlanPtr tree = RandomTree(rng, rdb.hierarchy(0), 4);
    PlanPtr baseline = ClonePlan(*tree);
    Status annotated = AnnotatePlan(*baseline, rdb.db());
    ASSERT_TRUE(annotated.ok()) << annotated;

    RewriteStats stats;
    Result<PlanPtr> rewritten =
        RewritePlan(std::move(tree), rdb.db(), {}, &stats);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    // Rendering any annotated tree must always work.
    EXPECT_FALSE(ExplainPlanTree(**rewritten, &stats).empty());

    for (PreemptionMode mode : kModes) {
      ExecOptions exec;
      exec.inference.preemption = mode;
      Result<PlanOutput> base = ExecutePlan(*baseline, rdb.db(), exec);
      Result<PlanOutput> opt = ExecutePlan(**rewritten, rdb.db(), exec);
      // A sample may exhaust a kernel limit; it must do so identically.
      ASSERT_EQ(base.ok(), opt.ok())
          << "baseline: " << base.status() << "\noptimized: " << opt.status()
          << "\n" << ExplainPlanTree(**rewritten, &stats);
      if (!base.ok()) {
        EXPECT_EQ(base.status().code(), opt.status().code());
        continue;
      }
      ASSERT_TRUE(base->relation.has_value());
      ASSERT_TRUE(opt->relation.has_value());
      EXPECT_EQ(ExtensionOf(*base->relation, exec.inference),
                ExtensionOf(*opt->relation, exec.inference))
          << "seed=" << GetParam() << " sample=" << sample << " mode="
          << PreemptionModeToString(mode) << "\n"
          << ExplainPlanTree(**rewritten, &stats);
    }
  }
}

TEST_P(PlanProperty, CachedExecutionMatchesUncached) {
  testing::RandomDatabase rdb(GetParam() + 777, {});
  MakeUnambiguousEverywhere(*rdb.relation());
  MakeSecondRelation(rdb, GetParam() + 778);
  Random rng(GetParam() + 779);

  for (int sample = 0; sample < 6; ++sample) {
    PlanPtr tree = RandomTree(rng, rdb.hierarchy(0), 3);
    Result<PlanPtr> plan = RewritePlan(std::move(tree), rdb.db());
    ASSERT_TRUE(plan.ok()) << plan.status();

    ExecOptions uncached;
    Result<PlanOutput> cold = ExecutePlan(**plan, rdb.db(), uncached);

    ExecOptions cached = uncached;
    cached.cache = &rdb.db().subsumption_cache();
    ExecStats first_stats, second_stats;
    Result<PlanOutput> first =
        ExecutePlan(**plan, rdb.db(), cached, &first_stats);
    Result<PlanOutput> second =
        ExecutePlan(**plan, rdb.db(), cached, &second_stats);

    ASSERT_EQ(cold.ok(), first.ok());
    ASSERT_EQ(cold.ok(), second.ok());
    if (!cold.ok()) continue;
    InferenceOptions inference;
    std::vector<Item> expected = ExtensionOf(*cold->relation, inference);
    EXPECT_EQ(expected, ExtensionOf(*first->relation, inference));
    EXPECT_EQ(expected, ExtensionOf(*second->relation, inference));
    // Base relations were untouched between runs, so every graph the
    // second run looked up was already cached.
    if (first_stats.graph_cache_misses > 0) {
      EXPECT_EQ(second_stats.graph_cache_misses, 0u);
      EXPECT_GT(second_stats.graph_cache_hits, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperty, ::testing::Range<uint64_t>(0, 8));

TEST(PlanDigestTest, IdenticalShapesDigestEqually) {
  PlanPtr a = MakeConsolidate(MakeSelect(MakeScan("r"), 0, 3, "a0", "n"));
  PlanPtr b = MakeConsolidate(MakeSelect(MakeScan("r"), 0, 3, "a0", "n"));
  EXPECT_EQ(PlanDigest(*a), PlanDigest(*b));
  EXPECT_EQ(PlanDigest(*a).size(), 16u);  // 16 hex chars
}

TEST(PlanDigestTest, DistinctShapesDigestDistinctly) {
  std::vector<PlanPtr> shapes;
  shapes.push_back(MakeScan("r"));
  shapes.push_back(MakeScan("s"));
  shapes.push_back(MakeSelect(MakeScan("r"), 0, 3, "a0", "n"));
  shapes.push_back(MakeConsolidate(MakeScan("r")));
  shapes.push_back(MakeNaturalJoin(MakeScan("r"), MakeScan("s")));
  shapes.push_back(MakeProject(MakeScan("r"), {0}));
  std::vector<std::string> digests;
  for (const PlanPtr& shape : shapes) digests.push_back(PlanDigest(*shape));
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end());
}

TEST(PlanDigestTest, StableAcrossExecutors) {
  // The digest hashes plan structure only, so the same statement compiled
  // by two separate executors identifies the same plan — slow-query log
  // and sys.queries entries stay correlatable.
  std::vector<std::string> digests;
  for (int run = 0; run < 2; ++run) {
    hql::Executor exec;
    ASSERT_TRUE(exec.Execute(R"(
      CREATE HIERARCHY h;
      CREATE CLASS c IN h;
      CREATE INSTANCE i IN h UNDER c;
      CREATE RELATION r (a: h);
      ASSERT r(ALL c);
    )").ok());
    ASSERT_TRUE(exec.Execute("SELECT * FROM r WHERE a = ALL c;").ok());
    digests.push_back(exec.query_history().Snapshot().back()->plan_digest);
  }
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_FALSE(digests[0].empty());
  for (const std::string& digest : digests) EXPECT_EQ(digest, digests[0]);
}

}  // namespace
}  // namespace plan
}  // namespace hirel
