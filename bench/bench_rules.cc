// The Datalog layer: fixpoint throughput on the classic transitive-closure
// workload, on the paper's travels-far shape, and on the supplies x stock
// join that hqlbench's analytic workload derives from.

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "rules/rule.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

void BM_TransitiveClosureChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    Hierarchy* node = db.CreateHierarchy("node").value();
    std::vector<NodeId> atoms;
    for (size_t i = 0; i < n; ++i) {
      atoms.push_back(
          node->AddInstance(Value::Int(static_cast<int64_t>(i))).value());
    }
    HierarchicalRelation* edge =
        db.CreateRelation("edge", {{"a", "node"}, {"b", "node"}}).value();
    (void)db.CreateRelation("path", {{"a", "node"}, {"b", "node"}});
    for (size_t i = 0; i + 1 < n; ++i) {
      (void)edge->Insert({atoms[i], atoms[i + 1]}, Truth::kPositive);
    }
    RuleEngine engine(&db);
    (void)engine.AddRule("path(?a, ?b) :- edge(?a, ?b).");
    (void)engine.AddRule("path(?a, ?c) :- path(?a, ?b), edge(?b, ?c).");
    state.ResumeTiming();
    derived = engine.Evaluate().value();
    benchmark::DoNotOptimize(derived);
  }
  state.counters["derived_facts"] = static_cast<double>(derived);
}

void BM_TravelsFarOverTaxonomy(benchmark::State& state) {
  // The paper's motivating rule, over a growing taxonomy: one class tuple
  // in flies fans out to the whole extension through the rule.
  size_t members = static_cast<size_t>(state.range(0));
  size_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    Hierarchy* h =
        testing::BuildTreeHierarchy(db, "d", 2, 4, members / 16 + 1);
    HierarchicalRelation* flies =
        db.CreateRelation("flies", {{"who", "d"}}).value();
    (void)db.CreateRelation("travels_far", {{"who", "d"}});
    (void)flies->Insert({h->Children(h->root())[0]}, Truth::kPositive);
    RuleEngine engine(&db);
    (void)engine.AddRule("travels_far(?x) :- flies(?x).");
    state.ResumeTiming();
    derived = engine.Evaluate().value();
    benchmark::DoNotOptimize(derived);
  }
  state.counters["derived_facts"] = static_cast<double>(derived);
}

void BM_DeriveJoinProbe(benchmark::State& state) {
  // available(?v, ?i) :- supplies(?v, ?i), stock(?i): four vendors supply
  // each of n skus and every other sku is stocked, so the join reads 4n
  // supplies rows against n/2 stock rows (analytic at seed 3: 11,855
  // against 1,843). stock(?i) is fully bound when the join reaches it.
  size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kVendors = 16;
  constexpr size_t kVendorsPerSku = 4;
  size_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    Hierarchy* vendor = db.CreateHierarchy("vendor").value();
    Hierarchy* product = db.CreateHierarchy("product").value();
    std::vector<NodeId> vendors, skus;
    for (size_t v = 0; v < kVendors; ++v) {
      vendors.push_back(
          vendor->AddInstance(Value::Int(static_cast<int64_t>(v))).value());
    }
    for (size_t i = 0; i < n; ++i) {
      skus.push_back(
          product->AddInstance(Value::Int(static_cast<int64_t>(i))).value());
    }
    HierarchicalRelation* supplies =
        db.CreateRelation("supplies", {{"v", "vendor"}, {"i", "product"}})
            .value();
    HierarchicalRelation* stock =
        db.CreateRelation("stock", {{"i", "product"}}).value();
    (void)db.CreateRelation("available", {{"v", "vendor"}, {"i", "product"}});
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < kVendorsPerSku; ++k) {
        (void)supplies->Insert({vendors[(i + k * 5) % kVendors], skus[i]},
                               Truth::kPositive);
      }
      if (i % 2 == 0) (void)stock->Insert({skus[i]}, Truth::kPositive);
    }
    RuleEngine engine(&db);
    (void)engine.AddRule("available(?v, ?i) :- supplies(?v, ?i), stock(?i).");
    state.ResumeTiming();
    derived = engine.Evaluate().value();
    benchmark::DoNotOptimize(derived);
  }
  state.counters["derived_facts"] = static_cast<double>(derived);
}

BENCHMARK(BM_TransitiveClosureChain)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TravelsFarOverTaxonomy)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeriveJoinProbe)->Arg(1000)->Arg(3000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
