// Incremental maintenance: the mutation journal, the hierarchy edit
// journal, the subsumption-graph patch path, delta consolidate, and the
// semi-naive DERIVE fast path must all be byte-identical to their
// from-scratch counterparts (BuildSubsumptionGraph, ConsolidateInPlace,
// the naive reference evaluator) — the whole feature is an invisible
// optimisation, so every test here is an equivalence test plus the
// bookkeeping (outcomes, stats, invalidation) that makes it observable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "common/random.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "core/mutation_journal.h"
#include "core/subsumption.h"
#include "core/subsumption_cache.h"
#include "hql/executor.h"
#include "reference_rules.h"
#include "reference_subsumption.h"
#include "rules/rule.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using GetOutcome = SubsumptionCache::GetOutcome;

void ExpectGraphEq(const SubsumptionGraph& got, const SubsumptionGraph& want,
                   const std::string& context) {
  EXPECT_EQ(got.nodes, want.nodes) << context;
  EXPECT_EQ(got.successors, want.successors) << context;
  EXPECT_EQ(got.predecessors, want.predecessors) << context;
  EXPECT_EQ(got.sources, want.sources) << context;
}

/// The relation's content as a sorted (item, truth) list — the
/// id-independent notion of "the same relation".
std::vector<std::pair<Item, Truth>> Content(
    const HierarchicalRelation& rel) {
  std::vector<std::pair<Item, Truth>> out;
  for (TupleId id : rel.TupleIds()) {
    TupleView t = rel.tuple(id);
    out.emplace_back(t.item.ToItem(), t.truth);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ----- MutationJournal -------------------------------------------------------

TEST(MutationJournalTest, SinceReturnsRecordsNewerThanVersion) {
  MutationJournal j;
  for (uint64_t v = 1; v <= 5; ++v) {
    j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
              static_cast<TupleId>(v), v, Item{}});
  }
  auto since = j.Since(2);
  ASSERT_TRUE(since.has_value());
  ASSERT_EQ(since->size(), 3u);
  EXPECT_EQ(since->front().version, 3u);
  EXPECT_EQ(since->back().version, 5u);
  // Version 0 predates nothing recorded, but the journal has never
  // dropped, so it still covers it completely.
  EXPECT_TRUE(j.Covers(0));
  EXPECT_EQ(j.Since(0)->size(), 5u);
}

TEST(MutationJournalTest, OverflowWithdrawsCoverage) {
  MutationJournal j;
  const size_t total = MutationJournal::kCapacity + 10;
  for (uint64_t v = 1; v <= total; ++v) {
    j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
              static_cast<TupleId>(v), v, Item{}});
  }
  EXPECT_EQ(j.size(), MutationJournal::kCapacity);
  EXPECT_EQ(j.dropped(), 10u);
  // The newest dropped record has stamp 10: anything older is uncovered.
  EXPECT_FALSE(j.Covers(9));
  EXPECT_FALSE(j.Since(9).has_value());
  ASSERT_TRUE(j.Covers(10));
  EXPECT_EQ(j.Since(10)->size(), MutationJournal::kCapacity);
}

TEST(MutationJournalTest, CutInvalidatesEverythingAtOrBefore) {
  MutationJournal j;
  j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
            TupleId{1}, 1, Item{}});
  j.Cut(7);
  EXPECT_EQ(j.size(), 0u);
  EXPECT_FALSE(j.Covers(6));
  EXPECT_TRUE(j.Covers(7));
  EXPECT_TRUE(j.Since(7)->empty());
}

TEST(MutationJournalTest, RelationRecordsItsMutations) {
  testing::FlyingFixture f;
  uint64_t mark = f.flies->version();
  TupleId added = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  ASSERT_TRUE(f.flies->Erase(added).ok());
  auto since = f.flies->journal().Since(mark);
  ASSERT_TRUE(since.has_value());
  ASSERT_EQ(since->size(), 2u);
  EXPECT_EQ((*since)[0].kind, MutationJournal::Record::Kind::kInsert);
  EXPECT_EQ((*since)[0].id, added);
  EXPECT_EQ((*since)[1].kind, MutationJournal::Record::Kind::kErase);
  EXPECT_EQ((*since)[1].item, Item{f.tweety});
  // Clear() reuses tuple ids, so it must sever delta coverage.
  f.flies->Clear();
  EXPECT_FALSE(f.flies->journal().Covers(mark));
}

// ----- Hierarchy edit journal ------------------------------------------------

TEST(HierarchyJournalTest, NodeAdditionsLeaveNoRecordButStayCovered) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 2, 3, 2);
  uint64_t mark = h->version();
  // New nodes cannot change binding between pre-existing nodes.
  ASSERT_TRUE(h->AddClass("late", h->root()).ok());
  std::vector<NodeId> affected;
  EXPECT_TRUE(h->AffectedSince(mark, &affected));
  EXPECT_TRUE(affected.empty());
}

TEST(HierarchyJournalTest, NovelEdgeReportsBothCones) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 2, 3, 2);
  std::vector<NodeId> top = h->Children(h->root());
  NodeId left = top[0];
  NodeId right_leaf = h->Children(top[1])[0];
  uint64_t mark = h->version();
  ASSERT_TRUE(h->AddEdge(left, right_leaf).ok());
  std::vector<NodeId> affected;
  ASSERT_TRUE(h->AffectedSince(mark, &affected));
  // Both endpoints of the new edge must be reported (ancestors of the
  // parent, descendants of the child).
  EXPECT_NE(std::find(affected.begin(), affected.end(), left),
            affected.end());
  EXPECT_NE(std::find(affected.begin(), affected.end(), right_leaf),
            affected.end());
}

TEST(HierarchyJournalTest, RingOverflowWithdrawsCoverage) {
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  // A long chain gives plenty of novel edges to record.
  std::vector<NodeId> chain;
  for (int i = 0; i < 80; ++i) {
    chain.push_back(h->AddClass("c" + std::to_string(i), h->root()).value());
  }
  uint64_t mark = h->version();
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    ASSERT_TRUE(h->AddEdge(chain[i], chain[i + 1]).ok());
  }
  std::vector<NodeId> affected;
  EXPECT_FALSE(h->AffectedSince(mark, &affected)) << "79 recorded edits "
      "must overflow the 64-entry ring";
}

// ----- Graph patching through the cache --------------------------------------

TEST(SubsumptionCachePatchTest, TupleChurnPatchesByteIdentically) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  GetOutcome outcome = GetOutcome::kNone;
  cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);  // first build of the entry
  cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kHit);

  // Insert, truth-churn, and erase, patching after each step.
  TupleId added = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  const SubsumptionGraph& patched1 = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(patched1, BuildSubsumptionGraph(*f.flies), "after insert");

  ASSERT_TRUE(f.flies->Erase(added).ok());
  TupleId readded = f.flies->Insert({f.tweety}, Truth::kNegative).value();
  const SubsumptionGraph& patched2 = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(patched2, BuildSubsumptionGraph(*f.flies), "after churn");

  ASSERT_TRUE(f.flies->Erase(readded).ok());
  const SubsumptionGraph& patched3 = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(patched3, BuildSubsumptionGraph(*f.flies), "after erase");

  SubsumptionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.patches + stats.rebuilds);
  EXPECT_EQ(stats.patches, 3u);
  EXPECT_EQ(stats.rebuilds, 1u);
}

TEST(SubsumptionCachePatchTest, HierarchyEditPatchesByteIdentically) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);

  // A novel subsumption edge re-relates already-asserted items: peter
  // (asserted atomically) slides under the penguin exception structure.
  ASSERT_TRUE(f.animal->AddEdge(f.galapagos, f.peter).ok());
  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& patched = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(patched, BuildSubsumptionGraph(*f.flies), "after CONNECT");

  // A preference edge changes the binding order itself.
  ASSERT_TRUE(f.animal->AddPreferenceEdge(f.penguin, f.galapagos).ok());
  const SubsumptionGraph& patched2 = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(patched2, BuildSubsumptionGraph(*f.flies), "after PREFER");
}

TEST(SubsumptionCachePatchTest, JournalOverflowForcesRebuild) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);
  // More mutations than the journal holds: coverage of the cached stamp
  // is withdrawn and the rebuild is attributed to the overflow.
  for (size_t i = 0; i < MutationJournal::kCapacity + 8; ++i) {
    TupleId id = f.flies->Insert({f.tweety}, Truth::kPositive).value();
    ASSERT_TRUE(f.flies->Erase(id).ok());
  }
  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& rebuilt = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  EXPECT_EQ(cache.stats().journal_overflows, 1u);
  ExpectGraphEq(rebuilt, BuildSubsumptionGraph(*f.flies), "after overflow");
}

TEST(SubsumptionCachePatchTest, ChurnOfTheSameIdCancelsToAFreeRefresh) {
  // Insert-then-erase of the same id nets out in the journal fold: the
  // delta is empty and the "patch" is a stamp-only refresh, not a rebuild.
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);
  for (int i = 0; i < 100; ++i) {
    TupleId id = f.flies->Insert({f.tweety}, Truth::kPositive).value();
    ASSERT_TRUE(f.flies->Erase(id).ok());
  }
  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& g = cache.Get(*f.flies, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kPatched);
  ExpectGraphEq(g, BuildSubsumptionGraph(*f.flies), "after cancelling churn");
}

TEST(SubsumptionCachePatchTest, LargeDeltaTakesTheRebuildHeuristic) {
  // 60 net insertions into a small relation: the journal still covers the
  // stamp but the delta rivals the relation itself, so the cost heuristic
  // must pick a rebuild — without charging a journal overflow.
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", 2, 4, 10);
  HierarchicalRelation* rel =
      db.CreateRelation("r", {{"a", "d"}}).value();
  std::vector<NodeId> atoms = h->Instances();
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(rel->Insert({atoms[i]}, Truth::kPositive).ok());
  }
  SubsumptionCache& cache = db.subsumption_cache();
  cache.Get(*rel);
  for (size_t i = 8; i < 68; ++i) {
    ASSERT_TRUE(rel->Insert({atoms[i]}, Truth::kPositive).ok());
  }
  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& g = cache.Get(*rel, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  EXPECT_EQ(cache.stats().journal_overflows, 0u);
  ExpectGraphEq(g, BuildSubsumptionGraph(*rel), "after bulk insert");
}

// ----- Database mutation entry points must invalidate ------------------------

TEST(SubsumptionCacheInvalidationTest, AdoptReplaceCannotServeStaleGraph) {
  // Regression: AdoptRelation over an existing name installs a relation
  // whose fresh journal (floor 0) claims coverage of ANY older stamp, so a
  // surviving cache entry would happily "patch" the old relation's graph
  // with an empty delta. The adopt must invalidate unconditionally.
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  EXPECT_EQ(cache.Get(*f.flies).nodes.size(), 4u);

  Schema schema;
  ASSERT_TRUE(schema.Append("who", f.animal).ok());
  HierarchicalRelation replacement("flies", std::move(schema));
  ASSERT_TRUE(replacement.Insert({f.paul}, Truth::kPositive).ok());
  HierarchicalRelation* adopted =
      f.db.AdoptRelation(std::move(replacement), /*replace_existing=*/true)
          .value();

  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& graph = cache.Get(*adopted, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(adopted->tuple(graph.nodes[0]).item, Item{f.paul});

  // The one-arg form still refuses to replace.
  Schema again;
  ASSERT_TRUE(again.Append("who", f.animal).ok());
  EXPECT_TRUE(f.db.AdoptRelation(HierarchicalRelation("flies",
                                                      std::move(again)))
                  .status()
                  .IsAlreadyExists());
}

TEST(SubsumptionCacheInvalidationTest, DropRelationDropsTheEntry) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(f.db.DropRelation("flies").ok());
  EXPECT_EQ(cache.size(), 0u);
}

// ----- Delta consolidate -----------------------------------------------------

TEST(ConsolidateDeltaTest, MatchesFullConsolidateOnSeededChanges) {
  testing::FlyingFixture f;
  ASSERT_TRUE(ConsolidateInPlace(*f.flies).ok());

  // +tweety is redundant under +ALL bird; so is a second exact copy of
  // the penguin denial's child structure. Seed exactly the new ids.
  TupleId t1 = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  TupleId t2 = f.flies->Insert({f.paul}, Truth::kNegative).value();

  HierarchicalRelation full_copy(*f.flies);
  size_t removed_full = ConsolidateInPlace(full_copy).value();

  SubsumptionGraph graph = BuildSubsumptionGraph(*f.flies);
  size_t removed_delta =
      ConsolidateDelta(*f.flies, {}, graph, {t1, t2}).value();

  EXPECT_EQ(removed_delta, removed_full);
  EXPECT_EQ(Content(*f.flies), Content(full_copy));
  EXPECT_EQ(Extension(*f.flies).value(), Extension(full_copy).value());
}

TEST(ConsolidateDeltaTest, ExecutorUsesDeltaPathAndMatchesFull) {
  // Each CONSOLIDATE after the first must take the delta path (the
  // " (delta)" suffix) and leave the relation as a full ConsolidateInPlace
  // leaves a copy taken just before it. The first batch re-asserts and
  // adds tuples; the second only erases the denial that shielded them, so
  // only the erase records can seed their removal.
  hql::Executor exec;
  ASSERT_TRUE(exec
                  .Execute("CREATE HIERARCHY d;"
                           "CREATE CLASS c1 IN d; CREATE CLASS c2 IN d UNDER c1;"
                           "CREATE INSTANCE i1 IN d UNDER c2;"
                           "CREATE INSTANCE i2 IN d UNDER c2;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c1); DENY r(ALL c2); ASSERT r(i1);"
                           "CONSOLIDATE r;")
                  .ok());
  const HierarchicalRelation* r =
      std::as_const(exec.database()).GetRelation("r").value();
  for (const char* mutate : {"RETRACT r(i1); ASSERT r(i1); ASSERT r(i2);",
                             "RETRACT r(ALL c2);"}) {
    ASSERT_TRUE(exec.Execute(mutate).ok()) << mutate;
    HierarchicalRelation full(*r);
    size_t removed = ConsolidateInPlace(full).value();

    Result<std::string> con = exec.Execute("CONSOLIDATE r;");
    ASSERT_TRUE(con.ok()) << mutate;
    EXPECT_NE(con->find(" (delta)"), std::string::npos) << *con;
    EXPECT_NE(con->find("removed " + std::to_string(removed) + " "),
              std::string::npos)
        << mutate << ": " << *con;
    EXPECT_EQ(Content(*r), Content(full)) << mutate;
    ExpectGraphEq(exec.database().subsumption_cache().Get(*r),
                  BuildSubsumptionGraph(*r), mutate);
  }
  // The shielded tuples became redundant under +c1 and went.
  EXPECT_EQ(r->size(), 1u);
}

// ----- Semi-naive DERIVE -----------------------------------------------------

TEST(DeriveIncrementalTest, SemiNaiveMatchesNaive) {
  // The engine against the naive reference evaluator, which rescans every
  // extension in full, over two evaluations with an insert between them.
  auto build = [](bool reference) {
    auto f = std::make_unique<testing::FlyingFixture>();
    HierarchicalRelation* far =
        f->db.CreateRelation("travels_far", {{"who", "animal"}}).value();
    RuleEngine engine(&f->db);
    EXPECT_TRUE(engine.AddRule("travels_far(?x) :- flies(?x).").ok());
    auto evaluate = [&]() {
      return reference ? testing::ReferenceEvaluate(f->db, engine.rules())
                       : engine.Evaluate();
    };
    EXPECT_TRUE(evaluate().ok());
    EXPECT_TRUE(f->flies->Insert({f->tweety}, Truth::kPositive).ok());
    EXPECT_TRUE(evaluate().ok());
    return Content(*far);
  };
  EXPECT_EQ(build(false), build(true));
}

// ----- HQL surface and metrics ----------------------------------------------

TEST(IncrementalHqlTest, SetIncrementalIsAParseError) {
  // Maintenance has one path, so there is no switch to set.
  hql::Executor exec;
  EXPECT_TRUE(exec.Execute("SET INCREMENTAL ON;").status().IsParseError());
  EXPECT_TRUE(exec.Execute("set incremental off;").status().IsParseError());
}

TEST(IncrementalHqlTest, ShowMetricsSurfacesPatchCounters) {
  hql::Executor exec;
  ASSERT_TRUE(exec
                  .Execute("CREATE HIERARCHY d; CREATE CLASS c IN d;"
                           "CREATE INSTANCE i IN d UNDER c;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c); COUNT r;"
                           "RETRACT r(ALL c); ASSERT r(ALL c); COUNT r;")
                  .ok());
  Result<std::string> metrics = exec.Execute("SHOW METRICS;");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("cache.patched"), std::string::npos);
  EXPECT_NE(metrics->find("cache.rebuilt"), std::string::npos);
  EXPECT_NE(metrics->find("cache.journal_overflows"), std::string::npos);
}

TEST(IncrementalHqlTest, ExplainAnalyzeAnnotatesThePatchPath) {
  hql::Executor exec;
  ASSERT_TRUE(exec
                  .Execute("CREATE HIERARCHY d; CREATE CLASS c IN d;"
                           "CREATE INSTANCE i IN d UNDER c;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c); COUNT r;"
                           "RETRACT r(ALL c); ASSERT r(ALL c);")
                  .ok());
  Result<std::string> plan = exec.Execute("EXPLAIN ANALYZE COUNT r;");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("incremental="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("patched=true"), std::string::npos) << *plan;
}

// ----- Randomized equivalence ------------------------------------------------

/// N random mutations — inserts, erases, novel CONNECTs, PREFERs — with the
/// cache's patched graph checked byte-identical to a from-scratch build
/// and to the pairwise reference build after every step.
class IncrementalEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalEquivalence, PatchedGraphMatchesRebuildUnderRandomChurn) {
  testing::RandomFixtureOptions options;
  options.num_classes = 14;
  options.num_instances = 24;
  options.num_tuples = 10;
  testing::RandomDatabase rdb(GetParam(), options);
  HierarchicalRelation* rel = rdb.relation();
  Hierarchy* h = rdb.hierarchy(0);
  SubsumptionCache& cache = rdb.db().subsumption_cache();
  Random rng(GetParam() * 977 + 13);

  cache.Get(*rel);
  std::vector<NodeId> nodes = h->Nodes();
  for (int step = 0; step < 40; ++step) {
    size_t roll = rng.Index(10);
    if (roll < 4) {
      Item item{nodes[rng.Index(nodes.size())]};
      Truth truth = rng.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive;
      (void)rel->Insert(item, truth);  // duplicates/conflicts may refuse
    } else if (roll < 7) {
      std::vector<TupleId> ids = rel->TupleIds();
      if (!ids.empty()) {
        ASSERT_TRUE(rel->Erase(ids[rng.Index(ids.size())]).ok());
      }
    } else if (roll < 9) {
      // CONNECT: a novel subsumption edge (cycles are refused; both
      // verdicts are fine — a refusal just mutates nothing).
      (void)h->AddEdge(nodes[rng.Index(nodes.size())],
                       nodes[rng.Index(nodes.size())]);
    } else {
      (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                 nodes[rng.Index(nodes.size())]);
    }
    std::string context = "seed " + std::to_string(GetParam()) +
                          " step " + std::to_string(step);
    const SubsumptionGraph& cached = cache.Get(*rel);
    ExpectGraphEq(cached, BuildSubsumptionGraph(*rel), context);
    ExpectGraphEq(cached, testing::ReferenceSubsumptionGraph(*rel),
                  context + " reference");
  }
  SubsumptionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.patches + stats.rebuilds);
  EXPECT_GT(stats.patches, 0u) << "churn this small should mostly patch";
}

/// One executor runs a random trace over the maintained paths. Each
/// CONSOLIDATE must leave its relation as a full ConsolidateInPlace leaves a
/// copy taken just before it, reach must hold exactly the atoms of every
/// extension of r a DERIVE saw, and the cached graphs must equal
/// from-scratch builds. CONNECT and PREFER edit only r's hierarchy, so s
/// keeps taking the delta CONSOLIDATE that any hierarchy edit turns off.
TEST_P(IncrementalEquivalence, ExecutorTraceMatchesWithIncrementalOff) {
  hql::Executor exec;
  for (const char* h : {"d", "e"}) {
    ASSERT_TRUE(exec
                    .Execute(std::string("CREATE HIERARCHY ") + h + ";" +
                             "CREATE CLASS c0 IN " + h + ";" +
                             "CREATE CLASS c1 IN " + h + ";" +
                             "CREATE CLASS c2 IN " + h + " UNDER c0;" +
                             "CREATE CLASS c3 IN " + h + " UNDER c1;" +
                             "CREATE INSTANCE i0 IN " + h + " UNDER c2;" +
                             "CREATE INSTANCE i1 IN " + h + " UNDER c2;" +
                             "CREATE INSTANCE i2 IN " + h + " UNDER c3;" +
                             "CREATE INSTANCE i3 IN " + h + " UNDER c3;")
                    .ok());
  }
  ASSERT_TRUE(exec
                  .Execute("CREATE RELATION r (a: d);"
                           "CREATE RELATION s (a: e);"
                           "CREATE RELATION reach (a: d);"
                           "RULE 'reach(?x) :- r(?x).';")
                  .ok());
  const Database& db = std::as_const(exec.database());
  const HierarchicalRelation* r = db.GetRelation("r").value();
  const HierarchicalRelation* s = db.GetRelation("s").value();
  const HierarchicalRelation* reach = db.GetRelation("reach").value();
  SubsumptionCache& cache = exec.database().subsumption_cache();
  std::vector<std::pair<Item, Truth>> derived;
  size_t delta_runs = 0;

  std::vector<std::string> targets = {"ALL c0", "ALL c1", "ALL c2",
                                      "ALL c3", "i0", "i1", "i2", "i3"};
  Random rng(GetParam() * 31 + 7);
  for (int step = 0; step < 120; ++step) {
    const HierarchicalRelation* rel = rng.Bernoulli(0.5) ? r : s;
    const std::string name = rel->name();
    size_t roll = rng.Index(13);
    std::string stmt;
    if (roll < 4) {
      stmt = (rng.Bernoulli(0.3) ? "DENY " : "ASSERT ") + name + "(" +
             targets[rng.Index(targets.size())] + ");";
    } else if (roll < 6) {
      stmt = "RETRACT " + name + "(" + targets[rng.Index(targets.size())] +
             ");";
    } else if (roll < 8) {
      stmt = "SELECT * FROM " + name + " WHERE a = " +
             targets[rng.Index(targets.size())] + ";";
    } else if (roll < 9) {
      stmt = "CONNECT c" + std::to_string(rng.Index(4)) + " TO i" +
             std::to_string(rng.Index(4)) + " IN d;";
    } else if (roll < 10) {
      stmt = "PREFER c" + std::to_string(rng.Index(4)) + " OVER c" +
             std::to_string(rng.Index(4)) + " IN d;";
    } else if (roll < 12) {
      stmt = "CONSOLIDATE " + name + ";";
    } else {
      stmt = "DERIVE;";
    }
    std::string context = "seed " + std::to_string(GetParam()) + " step " +
                          std::to_string(step) + ": " + stmt;
    HierarchicalRelation before(*rel);
    Result<std::string> out = exec.Execute(stmt);
    if (!out.ok()) continue;
    if (stmt.rfind("CONSOLIDATE", 0) == 0) {
      delta_runs += out->find(" (delta)") != std::string::npos;
      ASSERT_TRUE(ConsolidateInPlace(before).ok()) << context;
      EXPECT_EQ(Content(*rel), Content(before)) << context;
      ExpectGraphEq(cache.Get(*rel), BuildSubsumptionGraph(*rel), context);
    } else if (stmt == "DERIVE;") {
      for (Item& item : Extension(*r).value()) {
        derived.emplace_back(std::move(item), Truth::kPositive);
      }
      std::sort(derived.begin(), derived.end());
      derived.erase(std::unique(derived.begin(), derived.end()),
                    derived.end());
      EXPECT_EQ(Content(*reach), derived) << context;
    }
  }
  EXPECT_GT(delta_runs, 0u) << "seed " << GetParam();
  for (const HierarchicalRelation* rel : {r, s, reach}) {
    ExpectGraphEq(cache.Get(*rel), BuildSubsumptionGraph(*rel),
                  rel->name() + " cached graph (seed " +
                      std::to_string(GetParam()) + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace hirel
