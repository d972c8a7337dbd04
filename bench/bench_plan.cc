// Plan-layer benchmarks: (1) the rewriter's selection pushdown on a
// select-over-join query — the unplanned shape filters after joining, the
// planned shape clamps both inputs first; (2) the per-Database subsumption
// cache — repeated queries against an unmodified relation skip the graph
// rebuild entirely; (3) the COUNT and COUNT BY kernels on the browse
// catalogue's shape with its graph already cached. Baseline numbers live
// in BENCH_plan.json.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "algebra/aggregate.h"
#include "catalog/database.h"
#include "common/random.h"
#include "core/subsumption.h"
#include "plan/execute.h"
#include "plan/plan_node.h"
#include "plan/rewrite.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using plan::ExecStats;
using plan::MakeAggregate;
using plan::MakeConsolidate;
using plan::MakeNaturalJoin;
using plan::MakeScan;
using plan::MakeSelect;
using plan::PlanPtr;

struct PlanSetup {
  explicit PlanSetup(size_t instances_per_leaf) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/3,
                                            /*fanout=*/3,
                                            instances_per_leaf);
    left = db.CreateRelation("l", {{"v", "d"}}).value();
    right = db.CreateRelation("r", {{"v", "d"}}).value();
    std::vector<NodeId> top = hierarchy->Children(hierarchy->root());
    (void)left->Insert({hierarchy->root()}, Truth::kPositive);
    (void)left->Insert({top[0]}, Truth::kNegative);
    (void)right->Insert({top[0]}, Truth::kPositive);
    (void)right->Insert({top[1]}, Truth::kPositive);
    // Clamp to one grandchild class: a small slice of a large domain, the
    // case where pushing the selection below the join pays off.
    probe = hierarchy->Children(top[1])[0];
  }

  /// SELECT * FROM l JOIN r WHERE v = <probe>, as compiled (pre-rewrite).
  PlanPtr Query() const {
    PlanPtr join = MakeNaturalJoin(MakeScan("l"), MakeScan("r"));
    return MakeConsolidate(MakeSelect(std::move(join), 0, probe, "v",
                                      hierarchy->NodeName(probe)));
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* left;
  HierarchicalRelation* right;
  NodeId probe;
};

void BM_SelectOverJoinUnplanned(benchmark::State& state) {
  PlanSetup setup(static_cast<size_t>(state.range(0)));
  PlanPtr query = setup.Query();
  if (!AnnotatePlan(*query, setup.db).ok()) {
    state.SkipWithError("annotate failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan::ExecutePlan(*query, setup.db).value().relation->size());
  }
}

void BM_SelectOverJoinPlanned(benchmark::State& state) {
  PlanSetup setup(static_cast<size_t>(state.range(0)));
  PlanPtr query =
      plan::RewritePlan(setup.Query(), setup.db).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan::ExecutePlan(*query, setup.db).value().relation->size());
  }
}

/// A relation with a stored tuple on every class of a wide taxonomy:
/// rebuilding its subsumption graph (quadratic in stored tuples) dwarfs
/// the per-atom counting work, so the cache's effect is visible.
struct CountSetup {
  explicit CountSetup(size_t fanout) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/4, fanout,
                                            /*instances_per_leaf=*/1);
    rel = db.CreateRelation("big", {{"v", "d"}}).value();
    for (NodeId c : hierarchy->Classes()) {
      (void)rel->Insert({c}, Truth::kPositive);
    }
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* rel;
};

/// COUNT big — every run needs big's subsumption graph; clearing the
/// cache first makes each run rebuild it.
void BM_RepeatedCountUncached(benchmark::State& state) {
  CountSetup setup(static_cast<size_t>(state.range(0)));
  PlanPtr query = MakeAggregate(MakeScan("big"), plan::AggregateOp::kCount);
  if (!AnnotatePlan(*query, setup.db).ok()) {
    state.SkipWithError("annotate failed");
    return;
  }
  for (auto _ : state) {
    setup.db.subsumption_cache().Clear();
    benchmark::DoNotOptimize(
        *plan::ExecutePlan(*query, setup.db).value().count);
  }
}

void BM_RepeatedCountCached(benchmark::State& state) {
  CountSetup setup(static_cast<size_t>(state.range(0)));
  PlanPtr query = MakeAggregate(MakeScan("big"), plan::AggregateOp::kCount);
  if (!AnnotatePlan(*query, setup.db).ok()) {
    state.SkipWithError("annotate failed");
    return;
  }
  ExecStats totals;
  for (auto _ : state) {
    ExecStats stats;
    benchmark::DoNotOptimize(
        *plan::ExecutePlan(*query, setup.db, {}, &stats).value().count);
    totals.graph_cache_hits += stats.graph_cache_hits;
    totals.graph_cache_misses += stats.graph_cache_misses;
  }
  double lookups =
      static_cast<double>(totals.graph_cache_hits + totals.graph_cache_misses);
  state.counters["hit_rate"] =
      lookups > 0 ? static_cast<double>(totals.graph_cache_hits) / lookups : 0;
}

/// The browse catalogue at `skus` atoms: a depth-4 fanout-6 class tree
/// with the skus spread over its leaves. Five of the six top-level lines
/// are stocked, skus/50 lower classes are denied, and 95% of the skus
/// carry their own fact, 85% of those positive. The subsumption graph is
/// built once, as the cache would hold it.
struct BrowseCountSetup {
  explicit BrowseCountSetup(size_t skus) {
    hierarchy = testing::BuildTreeHierarchy(db, "product", /*depth=*/4,
                                            /*fanout=*/6,
                                            /*instances_per_leaf=*/0);
    std::vector<NodeId> top = hierarchy->Children(hierarchy->root());
    std::vector<NodeId> lower, leaves;
    for (NodeId c : hierarchy->Classes()) {
      if (c == hierarchy->root() || hierarchy->Parents(c)[0] ==
                                        hierarchy->root()) {
        continue;
      }
      lower.push_back(c);
      if (hierarchy->Children(c).empty()) leaves.push_back(c);
    }
    std::vector<NodeId> sku_nodes;
    for (size_t i = 0; i < skus; ++i) {
      sku_nodes.push_back(
          hierarchy
              ->AddInstance(Value::Int(static_cast<int64_t>(i)),
                            leaves[(i * 37) % leaves.size()])
              .value());
    }
    rel = db.CreateRelation("stock", {{"item", "product"}}).value();
    Random rng(3);
    rng.Shuffle(top);
    for (size_t i = 0; i + 1 < top.size(); ++i) {
      (void)rel->Insert({top[i]}, Truth::kPositive);
    }
    rng.Shuffle(lower);
    for (size_t i = 0; i < skus / 50 && i < lower.size(); ++i) {
      (void)rel->Insert({lower[i]}, Truth::kNegative);
    }
    rng.Shuffle(sku_nodes);
    const size_t own = skus * 95 / 100;
    for (size_t i = 0; i < own; ++i) {
      (void)rel->Insert({sku_nodes[i]}, i < own * 85 / 100
                                            ? Truth::kPositive
                                            : Truth::kNegative);
    }
    graph = BuildSubsumptionGraph(*rel);
    options.graph = &graph;
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* rel;
  SubsumptionGraph graph;
  AggregateOptions options;
};

/// COUNT stock over a cached graph.
void BM_CountExtension(benchmark::State& state) {
  BrowseCountSetup setup(static_cast<size_t>(state.range(0)));
  size_t count = 0;
  for (auto _ : state) {
    count = CountExtension(*setup.rel, setup.options).value();
    benchmark::DoNotOptimize(count);
  }
  state.counters["tuples"] = static_cast<double>(setup.rel->size());
  state.counters["count"] = static_cast<double>(count);
}

/// COUNT stock BY item: one bucket per top-level line.
void BM_RollUpTopLevel(benchmark::State& state) {
  BrowseCountSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RollUpTopLevel(*setup.rel, 0, setup.options).value().size());
  }
  state.counters["tuples"] = static_cast<double>(setup.rel->size());
}

BENCHMARK(BM_SelectOverJoinUnplanned)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectOverJoinPlanned)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RepeatedCountUncached)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RepeatedCountCached)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CountExtension)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RollUpTopLevel)->Arg(10000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
