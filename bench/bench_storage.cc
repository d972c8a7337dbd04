// Claim C1 (Section 1): "One can store the class membership once, and use
// a single tuple with the class name to substitute for many tuples with
// its constituent elements. ... a potentially infinite relation can be
// stored in constant space."
//
// Measures tuples stored and approximate bytes for the hierarchical
// representation (one class tuple + a handful of exceptions) versus the
// flat extension, as the class population grows.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "core/explicate.h"
#include "flat/flat_relation.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

/// One class tuple plus `exceptions` negated instance tuples over a
/// population of `members` instances.
struct StorageSetup {
  StorageSetup(size_t members, size_t exceptions) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/1,
                                            /*fanout=*/1,
                                            /*instances_per_leaf=*/members);
    relation = db.CreateRelation("r", {{"v", "d"}}).value();
    NodeId cls = hierarchy->Classes()[1];  // the single leaf class
    (void)relation->Insert({cls}, Truth::kPositive);
    std::vector<NodeId> atoms = hierarchy->Instances();
    for (size_t i = 0; i < exceptions && i < atoms.size(); ++i) {
      (void)relation->Insert({atoms[i]}, Truth::kNegative);
    }
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* relation;
};

void BM_HierarchicalStorage(benchmark::State& state) {
  size_t members = static_cast<size_t>(state.range(0));
  size_t exceptions = static_cast<size_t>(state.range(1));
  StorageSetup setup(members, exceptions);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.relation->ApproxBytes());
  }
  state.counters["tuples"] = static_cast<double>(setup.relation->size());
  state.counters["bytes"] =
      static_cast<double>(setup.relation->ApproxBytes());
  state.counters["ext_rows"] = static_cast<double>(members - exceptions);
}

void BM_FlatStorage(benchmark::State& state) {
  size_t members = static_cast<size_t>(state.range(0));
  size_t exceptions = static_cast<size_t>(state.range(1));
  StorageSetup setup(members, exceptions);
  FlatRelation flat =
      FlatRelation::FromRows("flat", setup.relation->schema(),
                             Extension(*setup.relation).value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.ApproxBytes());
  }
  state.counters["tuples"] = static_cast<double>(flat.size());
  state.counters["bytes"] = static_cast<double>(flat.ApproxBytes());
  state.counters["ext_rows"] = static_cast<double>(members - exceptions);
}

// Population sweep at fixed exception count, then exception sweep at fixed
// population.
BENCHMARK(BM_HierarchicalStorage)
    ->Args({100, 3})
    ->Args({1000, 3})
    ->Args({10000, 3})
    ->Args({100000, 3})
    ->Args({10000, 0})
    ->Args({10000, 30})
    ->Args({10000, 300});
BENCHMARK(BM_FlatStorage)
    ->Args({100, 3})
    ->Args({1000, 3})
    ->Args({10000, 3})
    ->Args({100000, 3})
    ->Args({10000, 0})
    ->Args({10000, 30})
    ->Args({10000, 300});

// ----- TupleStore footprint and scans --------------------------------------
//
// One relation, `tuples` positive instance tuples over a single leaf class.
// Byte counters come from ApproxBytes(), which includes the store's indexes
// and bitmaps, not just payloads. The `row` in each name keeps the rows
// comparable with the recorded baselines.

struct LayoutSetup {
  explicit LayoutSetup(size_t tuples) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/1,
                                            /*fanout=*/1,
                                            /*instances_per_leaf=*/tuples);
    relation = db.CreateRelation("r", {{"v", "d"}}).value();
    atoms = hierarchy->Instances();
    for (NodeId atom : atoms) {
      (void)relation->Insert({atom}, Truth::kPositive);
    }
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* relation;
  std::vector<NodeId> atoms;
};

void LayoutBytes(benchmark::State& state) {
  size_t tuples = static_cast<size_t>(state.range(0));
  LayoutSetup setup(tuples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.relation->ApproxBytes());
  }
  state.counters["tuples"] = static_cast<double>(setup.relation->size());
  state.counters["bytes"] =
      static_cast<double>(setup.relation->ApproxBytes());
}

/// Binding-style candidate scan: every probe hits the one-class taxonomy,
/// so the store walks its inverted component index.
void LayoutSubsumingScan(benchmark::State& state) {
  size_t tuples = static_cast<size_t>(state.range(0));
  LayoutSetup setup(tuples);
  Item probe{setup.atoms[setup.atoms.size() / 2]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.relation->TuplesSubsuming(probe));
  }
  state.counters["tuples"] = static_cast<double>(setup.relation->size());
  state.counters["bytes"] =
      static_cast<double>(setup.relation->ApproxBytes());
}

BENCHMARK(LayoutBytes)
    ->Name("LayoutBytes/row")
    ->Args({1000})
    ->Args({10000})
    ->Args({100000});
BENCHMARK(LayoutSubsumingScan)
    ->Name("LayoutSubsumingScan/row")
    ->Args({1000})
    ->Args({10000})
    ->Args({100000});

// ----- Browse-shaped footprint ----------------------------------------------
//
// The browse workload's stock relation in miniature: a depth-4, fanout-6
// product tree, `skus` instances and browse's fact mix (see
// testing::BuildBrowseShapedStock). Byte counts are deterministic, so
// tools/ci.sh gates on the bytes_per_tuple counter.

void BM_BrowseShapedStorage(benchmark::State& state) {
  Database db;
  HierarchicalRelation* stock = testing::BuildBrowseShapedStock(
      db, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stock->ApproxBytes());
  }
  double bytes = static_cast<double>(stock->ApproxBytes());
  state.counters["tuples"] = static_cast<double>(stock->size());
  state.counters["bytes"] = bytes;
  state.counters["bytes_per_tuple"] = bytes / stock->size();
}

BENCHMARK(BM_BrowseShapedStorage)->Arg(10000);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
