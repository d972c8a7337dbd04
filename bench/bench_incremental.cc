// Incremental subsumption-graph maintenance: after a single tuple
// mutation, the journal patch path must answer the next graph-dependent
// query at least an order of magnitude faster than a full rebuild.
//
// BM_MutateThenGetGraph/N/0  — mutate one tuple, rebuild the graph (OFF)
// BM_MutateThenGetGraph/N/1  — mutate one tuple, patch the graph (ON)
// BM_HqlMutateCountLoop/N/i  — the same loop end-to-end through HQL:
//                              RETRACT + ASSERT + COUNT per iteration
// BM_BuildSubsumptionGraph/N — one full graph build of a browse-shaped
//                              relation with N skus
// BM_BuildSubsumptionGraphChain/N — one build over an N-deep chain of
//                              asserted classes (the Σ|Up| worst case)
// BM_BuildSubsumptionGraphPreferred/N — the browse shape with preference
//                              edges between top-level lines
//
// tools/bench.sh compares the /0 and /1 rows of this binary and fails if
// the patched loop is less than 10x faster at the largest common size, and
// diffs against the committed BENCH_incremental.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_json_main.h"
#include "catalog/database.h"
#include "core/subsumption.h"
#include "core/subsumption_cache.h"
#include "hql/executor.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

/// A stock relation with `n` positive instance tuples over a tree product
/// taxonomy (512 leaves), plus one class-level DENY per top-level subtree
/// so the graph has non-trivial structure (exceptions under denials).
HierarchicalRelation* BuildStock(Database& db, size_t n) {
  Hierarchy* h = testing::BuildTreeHierarchy(db, "product", /*depth=*/3,
                                             /*fanout=*/8, n / 512 + 1);
  Schema schema;
  (void)schema.Append("item", h);
  HierarchicalRelation rel("stock", std::move(schema));
  for (NodeId top : h->Children(h->root())) {
    (void)rel.Insert({top}, Truth::kNegative);
  }
  size_t inserted = 0;
  for (NodeId atom : h->Instances()) {
    if (inserted == n) break;
    (void)rel.Insert({atom}, Truth::kPositive);
    ++inserted;
  }
  return db.AdoptRelation(std::move(rel)).value();
}

/// Kernel-level loop: erase + re-insert one tuple, then fetch the graph
/// from the cache. With incremental ON every fetch must take the patch
/// path; with OFF every fetch is a from-scratch parallel build.
void BM_MutateThenGetGraph(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  SubsumptionCache& cache = db.subsumption_cache();
  cache.set_incremental(incremental);
  cache.Get(*rel);  // warm the entry

  TupleId victim = rel->TupleIds().back();
  Item item = rel->ItemAt(victim).ToItem();
  for (auto _ : state) {
    (void)rel->Erase(victim);
    victim = rel->Insert(item, Truth::kPositive).value();
    SubsumptionCache::GetOutcome outcome = SubsumptionCache::GetOutcome::kNone;
    const SubsumptionGraph& graph = cache.Get(*rel, &outcome);
    benchmark::DoNotOptimize(graph.nodes.size());
    if (incremental && outcome != SubsumptionCache::GetOutcome::kPatched) {
      state.SkipWithError("expected the patch path");
      break;
    }
    if (!incremental && outcome != SubsumptionCache::GetOutcome::kRebuilt) {
      state.SkipWithError("expected a full rebuild");
      break;
    }
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
  state.counters["patched"] = static_cast<double>(cache.stats().patches);
  state.counters["rebuilt"] = static_cast<double>(cache.stats().rebuilds);
}

BENCHMARK(BM_MutateThenGetGraph)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Unit(benchmark::kMicrosecond);

/// Single-iteration reference for the 10^5 rebuild arm: one mutation
/// followed by a full, index-driven build of the graph, anchoring the
/// patched BM_MutateThenGetGraph/100000/1 row without a multi-iteration
/// sweep.
void BM_FullRebuildReferenceXL(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  SubsumptionCache& cache = db.subsumption_cache();
  cache.set_incremental(false);
  TupleId victim = rel->TupleIds().back();
  Item item = rel->ItemAt(victim).ToItem();
  for (auto _ : state) {
    (void)rel->Erase(victim);
    victim = rel->Insert(item, Truth::kPositive).value();
    const SubsumptionGraph& graph = cache.Get(*rel);
    benchmark::DoNotOptimize(graph.nodes.size());
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
}

BENCHMARK(BM_FullRebuildReferenceXL)
    ->Arg(100000)
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

/// A browse-shaped relation: a depth-4, fanout-6 product tree with `n`
/// skus spread over its 1,296 leaves; ASSERTs on five of the six top-level
/// lines, DENYs on up to n/50 lower classes, and own facts on 95% of the
/// skus, 85% of them positive.
HierarchicalRelation* BuildBrowse(Database& db, size_t n) {
  Hierarchy* h = testing::BuildTreeHierarchy(db, "product", /*depth=*/4,
                                             /*fanout=*/6, n / 1296 + 1);
  Schema schema;
  (void)schema.Append("item", h);
  HierarchicalRelation rel("stock", std::move(schema));
  const std::vector<NodeId>& top = h->Children(h->root());
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    (void)rel.Insert({top[i]}, Truth::kPositive);
  }
  std::vector<NodeId> lower;
  for (NodeId c : h->Classes()) {
    if (c != h->root() && h->Parents(c).front() != h->root()) {
      lower.push_back(c);
    }
  }
  // 37 is coprime to the 1,548 lower classes, so the stride is distinct.
  for (size_t i = 0; i < std::min(n / 50, lower.size()); ++i) {
    (void)rel.Insert({lower[(i * 37) % lower.size()]}, Truth::kNegative);
  }
  std::vector<NodeId> skus = h->Instances();
  size_t owned = 0;
  for (size_t i = 0; i < std::min(n, skus.size()); ++i) {
    if (i % 20 == 0) continue;
    (void)rel.Insert({skus[i]}, owned++ % 100 < 85 ? Truth::kPositive
                                                    : Truth::kNegative);
  }
  return db.AdoptRelation(std::move(rel)).value();
}

/// Builds the graph of `rel` once per iteration.
void RunBuild(benchmark::State& state, const HierarchicalRelation& rel) {
  size_t candidates = 0;
  size_t edges = 0;
  for (auto _ : state) {
    SubsumptionGraph graph = BuildSubsumptionGraph(rel, &candidates);
    edges = 0;
    for (const auto& list : graph.successors) edges += list.size();
    benchmark::DoNotOptimize(graph.nodes.data());
  }
  state.counters["tuples"] = static_cast<double>(rel.size());
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["candidates"] = static_cast<double>(candidates);
}

void BM_BuildSubsumptionGraph(benchmark::State& state) {
  Database db;
  RunBuild(state, *BuildBrowse(db, static_cast<size_t>(state.range(0))));
}

BENCHMARK(BM_BuildSubsumptionGraph)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_BuildSubsumptionGraphChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  Hierarchy* h = db.CreateHierarchy("chain").value();
  Schema schema;
  (void)schema.Append("item", h);
  HierarchicalRelation rel("chain", std::move(schema));
  NodeId node = h->root();
  for (size_t i = 0; i < n; ++i) {
    node = h->AddClass("c" + std::to_string(i), node).value();
    (void)rel.Insert({node}, i % 2 ? Truth::kNegative : Truth::kPositive);
  }
  RunBuild(state, rel);
}

BENCHMARK(BM_BuildSubsumptionGraphChain)
    ->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

/// Preference edges turn every ItemBindsBelow check into a union-graph
/// walk and route candidates through Hierarchy::BindingAncestors.
void BM_BuildSubsumptionGraphPreferred(benchmark::State& state) {
  Database db;
  HierarchicalRelation* rel =
      BuildBrowse(db, static_cast<size_t>(state.range(0)));
  Hierarchy* h = rel->schema().hierarchy(0);
  const std::vector<NodeId> top = h->Children(h->root());
  for (size_t i = 0; i + 1 < top.size(); i += 2) {
    (void)h->AddPreferenceEdge(top[i], top[i + 1]);
  }
  RunBuild(state, *rel);
}

BENCHMARK(BM_BuildSubsumptionGraphPreferred)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

/// End-to-end loop through the HQL executor: one retract, one assert, one
/// graph-dependent query (COUNT) per iteration, with SET INCREMENTAL
/// toggling the cache's patch path.
void BM_HqlMutateCountLoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  auto db = std::make_unique<Database>();
  BuildStock(*db, n);
  hql::Executor exec(std::move(db));
  std::string toggle = std::string("SET INCREMENTAL ") +
                       (incremental ? "ON" : "OFF") + ";";
  if (!exec.Execute(toggle).ok()) {
    state.SkipWithError("SET INCREMENTAL failed");
    return;
  }
  if (!exec.Execute("COUNT stock;").ok()) {  // warm the cache entry
    state.SkipWithError("warmup COUNT failed");
    return;
  }
  // The last instance's node name, for RETRACT/ASSERT round-trips.
  const HierarchicalRelation* rel =
      std::as_const(exec.database()).GetRelation("stock").value();
  const Hierarchy* h = rel->schema().hierarchy(0);
  std::string sku = h->NodeName(rel->tuple(rel->TupleIds().back()).item[0]);
  std::string script = "RETRACT stock(" + sku + "); ASSERT stock(" + sku +
                       "); COUNT stock;";
  for (auto _ : state) {
    Result<std::string> out = exec.Execute(script);
    if (!out.ok()) {
      state.SkipWithError("mutate+count loop failed");
      break;
    }
    benchmark::DoNotOptimize(out->size());
  }
  state.counters["tuples"] = static_cast<double>(n);
}

BENCHMARK(BM_HqlMutateCountLoop)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
