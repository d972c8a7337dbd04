// Byte-identical parallel execution: every parallel kernel must produce
// exactly the relation (rendering and all) the serial kernel produces, at
// any thread count, and EXPLAIN ANALYZE's probe totals must stay exact.
// Thread count 7 is deliberately coprime with the typical chunking so
// chunk boundaries land in odd places.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "rules/rule.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 7};

InferenceOptions WithThreads(size_t threads, uint64_t* probes = nullptr) {
  InferenceOptions options;
  options.threads = threads;
  options.probe_counter = probes;
  return options;
}

testing::RandomFixtureOptions DenseFixture() {
  testing::RandomFixtureOptions options;
  options.num_classes = 16;
  options.num_instances = 40;
  options.num_tuples = 24;
  return options;
}

TEST(ParallelDeterminismTest, ConsolidateMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    testing::RandomDatabase rdb(seed, DenseFixture());
    uint64_t serial_probes = 0;
    HierarchicalRelation reference =
        Consolidated(*rdb.relation(), WithThreads(1, &serial_probes))
            .value();
    for (size_t t : kThreadCounts) {
      uint64_t probes = 0;
      Result<HierarchicalRelation> parallel =
          Consolidated(*rdb.relation(), WithThreads(t, &probes));
      ASSERT_TRUE(parallel.ok()) << "seed " << seed << " threads " << t;
      EXPECT_EQ(parallel->ToString(), reference.ToString())
          << "seed " << seed << " threads " << t;
      EXPECT_EQ(probes, serial_probes)
          << "seed " << seed << " threads " << t;
    }
  }
}

TEST(ParallelDeterminismTest, ExplicateMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    testing::RandomDatabase rdb(seed, DenseFixture());
    for (bool consolidate_after : {false, true}) {
      ExplicateOptions serial;
      serial.consolidate_after = consolidate_after;
      HierarchicalRelation reference =
          Explicate(*rdb.relation(), {}, serial).value();
      for (size_t t : kThreadCounts) {
        ExplicateOptions opts;
        opts.consolidate_after = consolidate_after;
        opts.inference.threads = t;
        Result<HierarchicalRelation> parallel =
            Explicate(*rdb.relation(), {}, opts);
        ASSERT_TRUE(parallel.ok()) << "seed " << seed << " threads " << t;
        EXPECT_EQ(parallel->ToString(), reference.ToString())
            << "seed " << seed << " threads " << t;
      }
    }
  }
}

TEST(ParallelDeterminismTest, ExplicateOverflowErrorMatchesSerial) {
  testing::FlyingFixture f;
  ExplicateOptions serial;
  serial.max_result_tuples = 2;  // flies explicates to more rows than this
  Status reference = Explicate(*f.flies, {}, serial).status();
  ASSERT_TRUE(reference.IsResourceExhausted());
  for (size_t t : kThreadCounts) {
    ExplicateOptions opts;
    opts.max_result_tuples = 2;
    opts.inference.threads = t;
    Status status = Explicate(*f.flies, {}, opts).status();
    EXPECT_EQ(status.ToString(), reference.ToString()) << "threads " << t;
  }
}

TEST(ParallelDeterminismTest, SelectAndSetOpsMatchSerial) {
  testing::LovesFixture f;
  uint64_t serial_probes = 0;
  std::string select_ref =
      SelectEquals(*f.jill, 0, f.base.penguin, WithThreads(1, &serial_probes))
          .value()
          .ToString();
  SetOpOptions serial_setop;
  std::string union_ref = Union(*f.jill, *f.jack, serial_setop)
                              .value()
                              .ToString();
  std::string diff_ref = Difference(*f.jill, *f.jack, serial_setop)
                             .value()
                             .ToString();
  for (size_t t : kThreadCounts) {
    uint64_t probes = 0;
    EXPECT_EQ(SelectEquals(*f.jill, 0, f.base.penguin,
                           WithThreads(t, &probes))
                  .value()
                  .ToString(),
              select_ref)
        << "threads " << t;
    EXPECT_EQ(probes, serial_probes) << "threads " << t;

    SetOpOptions setop;
    setop.inference.threads = t;
    EXPECT_EQ(Union(*f.jill, *f.jack, setop).value().ToString(), union_ref)
        << "threads " << t;
    EXPECT_EQ(Difference(*f.jill, *f.jack, setop).value().ToString(),
              diff_ref)
        << "threads " << t;
  }
}

TEST(ParallelDeterminismTest, JoinAndProjectMatchSerial) {
  testing::ElephantFixture f;
  JoinOptions serial_join;
  std::string join_ref =
      NaturalJoin(*f.colors, *f.enclosure, serial_join).value().ToString();
  ProjectOptions serial_project;
  std::string project_ref =
      Project(*f.colors, std::vector<size_t>{0}, serial_project)
          .value()
          .ToString();
  for (size_t t : kThreadCounts) {
    JoinOptions join;
    join.inference.threads = t;
    EXPECT_EQ(NaturalJoin(*f.colors, *f.enclosure, join).value().ToString(),
              join_ref)
        << "threads " << t;
    ProjectOptions project;
    project.inference.threads = t;
    EXPECT_EQ(
        Project(*f.colors, std::vector<size_t>{0}, project)
            .value()
            .ToString(),
        project_ref)
        << "threads " << t;
  }
}

TEST(ParallelDeterminismTest, DeriveFixpointMatchesSerial) {
  std::string reference;
  for (size_t t : kThreadCounts) {
    testing::FlyingFixture zoo;
    HierarchicalRelation* travels_far =
        zoo.db.CreateRelation("travels_far", {{"who", "animal"}}).value();
    RuleEngine engine(&zoo.db);
    ASSERT_TRUE(engine.AddRule("travels_far(?x) :- flies(?x).").ok());
    RuleOptions options;
    options.inference.threads = t;
    options.subsumption_cache = &zoo.db.subsumption_cache();
    ASSERT_TRUE(engine.Evaluate(options).ok()) << "threads " << t;
    if (t == 1) {
      reference = travels_far->ToString();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(travels_far->ToString(), reference) << "threads " << t;
    }
  }
}

}  // namespace
}  // namespace hirel
