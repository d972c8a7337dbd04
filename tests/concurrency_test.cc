// Concurrent readers: queries are const and must be safe to run in
// parallel even though reachability caches are built lazily. (Writers are
// single-threaded by contract; these tests freeze the database first.)
//
// Run under TSan to see the point of the double-checked cache locks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "algebra/select.h"
#include "algebra/setops.h"
#include "core/explicate.h"
#include "core/inference.h"
#include "core/subsumption_cache.h"
#include "obs/alerts.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"
#include "obs/wait.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

TEST(ConcurrencyTest, ParallelInferenceOnSharedDatabase) {
  testing::FlyingFixture f;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  std::vector<NodeId> atoms = f.animal->Instances();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        NodeId atom = atoms[(t + q) % atoms.size()];
        Result<Truth> verdict = InferTruth(*f.flies, {atom});
        if (!verdict.ok()) {
          ++failures;
          continue;
        }
        bool expected = atom != f.paul;  // only paul is grounded
        if ((verdict.value() == Truth::kPositive) != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ParallelColdCacheReachability) {
  // All threads race to trigger the first closure build.
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 3, 3, 4);
    std::vector<NodeId> instances = h->Instances();
    NodeId root = h->root();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < instances.size(); i += 8) {
          if (!h->Subsumes(root, instances[i])) ++failures;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "trial " << trial;
  }
}

TEST(ConcurrencyTest, ParallelOperatorsOnSharedRelations) {
  testing::LovesFixture f;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < 50; ++q) {
        Result<HierarchicalRelation> both = Intersect(*f.jill, *f.jack);
        if (!both.ok() ||
            Extension(*both).value() !=
                (std::vector<Item>{{f.base.peter}})) {
          ++failures;
        }
        Result<HierarchicalRelation> sel =
            SelectEquals(*f.jill, 0, f.base.penguin);
        if (!sel.ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentSubsumptionCacheGets) {
  testing::LovesFixture f;
  const std::string jill_graph = SubsumptionGraphToString(
      *f.jill, BuildSubsumptionGraph(*f.jill));
  const std::string jack_graph = SubsumptionGraphToString(
      *f.jack, BuildSubsumptionGraph(*f.jack));

  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 200;
  for (int trial = 0; trial < 5; ++trial) {
    SubsumptionCache cache;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kGetsPerThread; ++q) {
          // Alternate names so cold misses for different relations build
          // concurrently and rehashes race with reads of other entries.
          const HierarchicalRelation& rel = (t + q) % 2 == 0 ? *f.jill
                                                             : *f.jack;
          const std::string& expected =
              (t + q) % 2 == 0 ? jill_graph : jack_graph;
          const SubsumptionGraph& graph = cache.Get(rel);
          if (SubsumptionGraphToString(rel, graph) != expected) ++failures;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "trial " << trial;
    // Same-name misses coalesce under the entry latch: exactly one build
    // per relation, every other Get is a hit, none is lost.
    SubsumptionCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u) << "trial " << trial;
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<size_t>(kThreads) * kGetsPerThread)
        << "trial " << trial;
  }
}

TEST(ConcurrencyTest, ReachabilitySnapshotColdBuildAndPinnedQueries) {
  for (int trial = 0; trial < 5; ++trial) {
    Database db;
    Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 3, 3, 4);
    std::vector<NodeId> instances = h->Instances();
    NodeId root = h->root();

    // Race the cold build: every thread pins its own snapshot first.
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        std::shared_ptr<const ReachabilitySnapshot> snap = h->reachability();
        for (size_t i = t; i < instances.size(); i += 8) {
          NodeId v = instances[i];
          bool reachable =
              root == v ||
              snap->Query(root, v) == ReachabilitySnapshot::Answer::kYes;
          if (!reachable) ++failures;
          if (!h->Subsumes(root, v)) ++failures;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "trial " << trial;

    // A pinned snapshot answers from its own version even while the
    // hierarchy moves on (the mutation publishes a fresh snapshot).
    std::shared_ptr<const ReachabilitySnapshot> pinned = h->reachability();
    NodeId probe = instances.front();
    ASSERT_TRUE(h->AddClass("late_arrival").ok());
    EXPECT_EQ(pinned->Query(root, probe),
              ReachabilitySnapshot::Answer::kYes);
    EXPECT_TRUE(h->Subsumes(root, probe));
  }
}

TEST(ConcurrencyTest, QueryHistoryRingWriterWithConcurrentReaders) {
  // Single writer (the executor), concurrent snapshot readers under the
  // ring's shared lock. A snapshot is a consistent window: complete
  // records, consecutive ids oldest-first, never more than capacity.
  obs::QueryHistoryRing ring(16);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<std::shared_ptr<const obs::QueryStats>> entries =
            ring.Snapshot();
        if (entries.size() > ring.capacity()) ++failures;
        for (size_t i = 0; i < entries.size(); ++i) {
          // wall_ns mirrors id so a torn record would be detectable.
          if (entries[i]->wall_ns != entries[i]->id * 3) ++failures;
          if (entries[i]->kind != "select") ++failures;
          if (i > 0 && entries[i]->id != entries[i - 1]->id + 1) ++failures;
        }
      }
    });
  }

  for (uint64_t i = 1; i <= 10'000; ++i) {
    obs::QueryStats stats;
    stats.id = i;
    stats.wall_ns = i * 3;
    stats.kind = "select";
    stats.statement = "SELECT * FROM r;";
    ring.Append(std::move(stats));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ring.total_recorded(), 10'000u);
  EXPECT_EQ(ring.Snapshot().size(), 16u);
}

TEST(ConcurrencyTest, TelemetrySamplerTicksAgainstWritersAndReaders) {
  // The sampler thread visits the registry while kernels write metric
  // values (relaxed atomics) and other threads register new metrics
  // (unique map lock) and snapshot the series rings (shared series lock).
  // TSan checks the lock discipline; the assertions check consistency.
  obs::MetricsRegistry registry;
  obs::Counter& hot = registry.counter("race.hot");
  obs::TelemetrySampler sampler(/*ring_capacity=*/8);
  sampler.SetRegistry(&registry);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread ticker([&] {
    while (!done.load(std::memory_order_acquire)) sampler.Tick();
  });
  std::thread writer([&] {
    while (!done.load(std::memory_order_acquire)) {
      hot.Add(1);
      registry.gauge("race.gauge").Set(42);
      registry.histogram("race.hist").Record(1000);
    }
  });
  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) registry.counter("race.new" + std::to_string(i)).Add(1);
  });
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const obs::TelemetrySampler::SeriesSnapshot& s :
           sampler.Snapshot()) {
        if (s.samples.size() > sampler.ring_capacity()) ++failures;
        uint64_t prev_seq = 0;
        for (const obs::TelemetrySampler::Sample& sample : s.samples) {
          // Rings hold strictly increasing tick sequence numbers; a
          // torn ring would break the order.
          if (sample.seq <= prev_seq) ++failures;
          prev_seq = sample.seq;
        }
      }
    }
  });

  registrar.join();
  std::this_thread::yield();
  done.store(true, std::memory_order_release);
  ticker.join();
  writer.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(sampler.ticks(), 0u);
  bool found_hot = false;
  for (const obs::TelemetrySampler::SeriesSnapshot& s : sampler.Snapshot()) {
    if (s.name == "race.hot") found_hot = true;
  }
  EXPECT_TRUE(found_hot);

  // Wait sites take the same concurrent traffic: many threads recording
  // into one site while another snapshots.
  obs::WaitEventRegistry& waits = obs::WaitEventRegistry::Global();
  obs::WaitEventRegistry::Site& site =
      waits.RegisterSite("test.race_site", obs::WaitClass::kLatch);
  std::atomic<bool> wdone{false};
  std::thread wsnap([&] {
    while (!wdone.load(std::memory_order_acquire)) waits.Snapshot();
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) site.Record(0, 100);
    });
  }
  for (std::thread& r : recorders) r.join();
  wdone.store(true, std::memory_order_release);
  wsnap.join();
  bool found_site = false;
  for (const obs::WaitEventRegistry::SiteSnapshot& s : waits.Snapshot()) {
    if (s.name != "test.race_site") continue;
    found_site = true;
    EXPECT_GE(s.count, 40'000u);
    EXPECT_GE(s.total_ns, 4'000'000u);
  }
  EXPECT_TRUE(found_site);
}

TEST(ConcurrencyTest, AlertEvaluationRacesRuleChurnAndReaders) {
  // The sampler thread evaluates alert rules on every tick (OnTick takes
  // the manager's mutex, then reads the rings via the sampler's shared
  // lock) while other threads churn rules, snapshot state, drain capture
  // requests, and append query history the watchdog scans. TSan checks
  // that the single manager mutex plus the sampler's lock ordering is
  // race-free; the assertions check the state machine stayed coherent.
  obs::MetricsRegistry registry;
  obs::QueryHistoryRing ring(/*capacity=*/32);
  obs::AlertManager alerts;
  alerts.Configure(&registry, &ring);
  obs::WatchdogConfig wd = alerts.watchdog();
  wd.query_budget_ms = 0;  // every appended query breaches
  alerts.set_watchdog(wd);
  obs::TelemetrySampler sampler(/*ring_capacity=*/8);
  sampler.SetRegistry(&registry);
  sampler.SetAlertManager(&alerts);

  obs::AlertRule steady;
  steady.name = "steady";
  steady.metric = "race.hot";
  steady.op = obs::AlertOp::kGe;
  steady.threshold = 0;
  ASSERT_TRUE(alerts.CreateAlert(steady).ok());

  std::atomic<bool> done{false};
  std::atomic<bool> written{false};  // first bump + breaching query landed
  std::atomic<int> failures{0};

  std::thread ticker([&] {
    while (!done.load(std::memory_order_acquire)) sampler.Tick();
  });
  std::thread writer([&] {
    uint64_t id = 1;
    while (!done.load(std::memory_order_acquire)) {
      registry.counter("race.hot").Add(1);
      obs::QueryStats stats;
      stats.id = id++;
      stats.wall_ns = 5'000'000;  // 5 ms, over the 0 ms budget
      stats.kind = "select";
      ring.Append(std::move(stats));
      written.store(true, std::memory_order_release);
    }
  });
  std::thread churner([&] {
    for (int i = 0; i < 500; ++i) {
      obs::AlertRule rule;
      rule.name = "churn";
      rule.metric = "race.hot";
      rule.op = i % 2 ? obs::AlertOp::kGt : obs::AlertOp::kLt;
      rule.threshold = i % 2 ? -1 : 0;
      if (!alerts.CreateAlert(rule).ok()) ++failures;
      if (!alerts.DropAlert("churn").ok()) ++failures;
    }
  });
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const obs::AlertSnapshot& a : alerts.Snapshot()) {
        // fires only moves forward; a torn snapshot would regress it.
        if (a.rule.name == "steady" && a.fires == 0 &&
            a.state == obs::AlertState::kResolved) {
          ++failures;
        }
      }
      alerts.FiringCount();
      obs::DeriveHealth(alerts.Snapshot());
      alerts.TakePendingCaptures();
    }
  });

  churner.join();
  // The churn can finish before the ticker has evaluated anything the
  // writer produced. Keep the race running until one whole tick began
  // after the writer's first bump and append: ticks() counts a tick when
  // it starts, so two more ticks past the mark mean the first of them
  // has also finished evaluating.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool observed = false;
  while (!observed && std::chrono::steady_clock::now() < deadline) {
    if (written.load(std::memory_order_acquire)) {
      const uint64_t mark = sampler.ticks();
      while (sampler.ticks() < mark + 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      observed = sampler.ticks() >= mark + 2;
    } else {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  ticker.join();
  writer.join();
  reader.join();

  ASSERT_TRUE(observed) << "no tick evaluated the writer's output within 60 s";
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(sampler.ticks(), 0u);
  bool steady_fired = false;
  bool watchdog_fired = false;
  for (const obs::AlertSnapshot& a : alerts.Snapshot()) {
    if (a.rule.name == "steady") steady_fired = a.fires > 0;
    if (a.rule.name == "watchdog_slow_query") watchdog_fired = a.fires > 0;
  }
  EXPECT_TRUE(steady_fired);
  EXPECT_TRUE(watchdog_fired);
  // Dropping a firing rule forfeits its resolve, so fired only bounds
  // resolved from above.
  EXPECT_GE(registry.counter("alerts.fired").value(),
            registry.counter("alerts.resolved").value());
}

TEST(ConcurrencyTest, ParallelReadersOfPatchedCacheEntry) {
  // A single writer mutates the relation between rounds, then eight
  // readers race to Get: the first fetch patches the stale entry in place
  // under its build latch while the rest coalesce behind it, and every
  // later fetch hits. The interesting case under TSan is the patch
  // rewriting the cached graph's vectors while peers wait on the same
  // entry — all reads must still agree with a from-scratch build.
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);
  for (int round = 0; round < 20; ++round) {
    TupleId added =
        f.flies
            ->Insert({f.tweety},
                     round % 2 ? Truth::kNegative : Truth::kPositive)
            .value();
    SubsumptionGraph expected = BuildSubsumptionGraph(*f.flies);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int q = 0; q < 50; ++q) {
          const SubsumptionGraph& g = cache.Get(*f.flies);
          if (g.nodes != expected.nodes ||
              g.successors != expected.successors ||
              g.predecessors != expected.predecessors ||
              g.sources != expected.sources) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    ASSERT_TRUE(f.flies->Erase(added).ok());
  }
  EXPECT_GT(cache.stats().patches, 0u);
}

}  // namespace
}  // namespace hirel
