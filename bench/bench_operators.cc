// Claim C6 (Sections 1, 3.4): the higher-level primitives let the backend
// evaluate powerful queries directly on the condensed form — versus the
// alternative of explicating first and running flat operators.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_json_main.h"

#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "core/explicate.h"
#include "flat/flat_ops.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

struct OpsSetup {
  explicit OpsSetup(size_t instances_per_leaf) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/3,
                                            /*fanout=*/3,
                                            instances_per_leaf);
    left = db.CreateRelation("l", {{"v", "d"}}).value();
    right = db.CreateRelation("r", {{"v", "d"}}).value();
    NodeId c0 = hierarchy->Children(hierarchy->root())[0];
    NodeId c1 = hierarchy->Children(hierarchy->root())[1];
    (void)left->Insert({hierarchy->root()}, Truth::kPositive);
    (void)left->Insert({c0}, Truth::kNegative);
    (void)right->Insert({c0}, Truth::kPositive);
    (void)right->Insert({c1}, Truth::kPositive);
    probe_class = c1;
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* left;
  HierarchicalRelation* right;
  NodeId probe_class;
};

void BM_HierarchicalSelect(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectEquals(*setup.left, 0, setup.probe_class).value().size());
  }
}

/// A 10^4-tuple relation over a depth-4, fanout-6 class tree (1,296 leaf
/// classes, 8 skus each): one positive tuple per sku plus a negative tuple
/// on every level-2 class, the shape of a product catalogue with
/// class-level exceptions. Most tuples lie outside any selected subtree, so
/// the select cost is dominated by the scan. With `brands`, every sku also
/// sits under one of 24 brand classes below the root, which makes each sku
/// a join node and the hierarchy a DAG.
struct CatalogSetup {
  explicit CatalogSetup(bool brands = false) {
    hierarchy = testing::BuildTreeHierarchy(db, "d", /*depth=*/4,
                                            /*fanout=*/6,
                                            /*instances_per_leaf=*/8);
    relation = db.CreateRelation("stock", {{"item", "d"}}).value();
    std::vector<NodeId> skus = hierarchy->Instances();
    skus.resize(10'000);
    if (brands) {
      std::vector<NodeId> brand;
      for (size_t b = 0; b < 24; ++b) {
        brand.push_back(hierarchy->AddClass("brand" + std::to_string(b))
                            .value());
      }
      for (size_t i = 0; i < skus.size(); ++i) {
        (void)hierarchy->AddEdge(brand[i % brand.size()], skus[i]);
      }
    }
    for (NodeId sku : skus) (void)relation->Insert({sku}, Truth::kPositive);
    for (NodeId level1 : hierarchy->Children(hierarchy->root())) {
      for (NodeId level2 : hierarchy->Children(level1)) {
        (void)relation->Insert({level2}, Truth::kNegative);
      }
    }
    // Probes by depth below the root: a level-1 and a level-2 class, a
    // level-4 (leaf) class, and a sku (depth 5).
    NodeId node = hierarchy->root();
    for (size_t depth = 1; depth <= 5; ++depth) {
      node = hierarchy->Children(node)[0];
      probe_at_depth[depth] = node;
    }
  }

  Database db;
  Hierarchy* hierarchy;
  HierarchicalRelation* relation;
  NodeId probe_at_depth[6] = {};
};

void BM_HierarchicalSelectCatalog(benchmark::State& state) {
  CatalogSetup setup;
  NodeId probe = setup.probe_at_depth[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectEquals(*setup.relation, 0, probe).value().size());
  }
}

/// The same catalogue with a brand class as every sku's second parent.
void BM_HierarchicalSelectCatalogDag(benchmark::State& state) {
  CatalogSetup setup(/*brands=*/true);
  NodeId probe = setup.probe_at_depth[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectEquals(*setup.relation, 0, probe).value().size());
  }
}

void BM_ExplicateThenFlatSelect(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FlatRelation flat =
        FlatRelation::FromRows("f", setup.left->schema(),
                               Extension(*setup.left).value())
            .value();
    benchmark::DoNotOptimize(
        FlatSelectEquals(flat, 0, setup.probe_class).value().size());
  }
}

void BM_HierarchicalUnion(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Union(*setup.left, *setup.right).value().size());
  }
}

void BM_ExplicateThenFlatUnion(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FlatRelation lf = FlatRelation::FromRows("l", setup.left->schema(),
                                             Extension(*setup.left).value())
                          .value();
    FlatRelation rf =
        FlatRelation::FromRows("r", setup.right->schema(),
                               Extension(*setup.right).value())
            .value();
    benchmark::DoNotOptimize(FlatUnion(lf, rf).value().size());
  }
}

void BM_HierarchicalIntersect(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Intersect(*setup.left, *setup.right).value().size());
  }
}

void BM_HierarchicalJoin(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JoinOn(*setup.left, *setup.right, {{0, 0}}).value().size());
  }
}

void BM_ExplicateThenFlatJoin(benchmark::State& state) {
  OpsSetup setup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FlatRelation lf = FlatRelation::FromRows("l", setup.left->schema(),
                                             Extension(*setup.left).value())
                          .value();
    FlatRelation rf =
        FlatRelation::FromRows("r", setup.right->schema(),
                               Extension(*setup.right).value())
            .value();
    benchmark::DoNotOptimize(FlatJoinOn(lf, rf, {{0, 0}}).value().size());
  }
}

BENCHMARK(BM_HierarchicalSelect)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchicalSelectCatalog)->ArgName("depth")->Arg(1)->Arg(2)
    ->Arg(4)->Arg(5)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchicalSelectCatalogDag)->ArgName("depth")->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ExplicateThenFlatSelect)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchicalUnion)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ExplicateThenFlatUnion)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchicalIntersect)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchicalJoin)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ExplicateThenFlatJoin)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
