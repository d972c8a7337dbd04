// Tests for the HQL statements beyond the paper's core: COMPRESS,
// BEGIN/COMMIT/ABORT, and SET PREEMPTION.

#include <gtest/gtest.h>

#include "core/inference.h"
#include "hql/executor.h"

namespace hirel {
namespace hql {
namespace {

constexpr const char* kTreeZoo = R"(
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS canary IN animal UNDER bird;
CREATE CLASS penguin IN animal UNDER bird;
CREATE CLASS afp IN animal UNDER penguin;
CREATE INSTANCE tweety IN animal UNDER canary;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE INSTANCE pamela IN animal UNDER afp;
CREATE INSTANCE peter IN animal UNDER afp;
CREATE RELATION flies (who: animal);
)";

TEST(HqlExtensionsTest, CompressStatement) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(R"(
    ASSERT flies(tweety);
    ASSERT flies(paul);
    ASSERT flies(pamela);
    ASSERT flies(peter);
  )").ok());
  std::string out = exec.Execute("COMPRESS flies;").value();
  EXPECT_NE(out.find("saved 3 tuple(s)"), std::string::npos);
  HierarchicalRelation* flies =
      exec.database().GetRelation("flies").value();
  EXPECT_EQ(flies->size(), 1u);
}

TEST(HqlExtensionsTest, CompressRejectsDagHierarchies) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(
      exec.Execute("CREATE CLASS seabird IN animal UNDER bird;"
                   "CONNECT seabird TO paul IN animal;")
          .ok());
  EXPECT_TRUE(exec.Execute("COMPRESS flies;").status().IsNotSupported());
}

TEST(HqlExtensionsTest, TransactionCommit) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  // Facts are staged, invisible until COMMIT, and validated once.
  std::string out = exec.Execute(R"(
    BEGIN flies;
    ASSERT flies(ALL bird);
    DENY flies(ALL penguin);
    ASSERT flies(ALL afp);
    COMMIT;
  )").value();
  EXPECT_NE(out.find("committed"), std::string::npos);
  HierarchicalRelation* flies =
      exec.database().GetRelation("flies").value();
  EXPECT_EQ(flies->size(), 3u);
}

TEST(HqlExtensionsTest, TransactionConflictRollsBack) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(R"(
    CREATE HIERARCHY student;
    CREATE CLASS obsequious IN student;
    CREATE INSTANCE john IN student UNDER obsequious;
    CREATE HIERARCHY teacher;
    CREATE CLASS incoherent IN teacher;
    CREATE INSTANCE jim IN teacher UNDER incoherent;
    CREATE RELATION respects (who: student, whom: teacher);
  )").ok());
  Result<std::string> out = exec.Execute(R"(
    BEGIN respects;
    ASSERT respects(ALL obsequious, ALL teacher);
    DENY respects(ALL student, ALL incoherent);
    COMMIT;
  )");
  EXPECT_TRUE(out.status().IsConflict());
  EXPECT_TRUE(
      exec.database().GetRelation("respects").value()->empty());
  // The transaction is closed after the failed commit.
  EXPECT_TRUE(exec.Execute("COMMIT;").status().IsInvalidArgument());
}

TEST(HqlExtensionsTest, TransactionAbort) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(
      "BEGIN flies; ASSERT flies(ALL bird); ABORT;").ok());
  EXPECT_TRUE(exec.database().GetRelation("flies").value()->empty());
  EXPECT_TRUE(exec.Execute("ABORT;").status().IsInvalidArgument());
}

TEST(HqlExtensionsTest, NestedBeginRejected) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute("BEGIN flies;").ok());
  EXPECT_TRUE(exec.Execute("BEGIN flies;").status().IsInvalidArgument());
  ASSERT_TRUE(exec.Execute("ABORT;").ok());
}

TEST(HqlExtensionsTest, DropGuardedWhileTransactionOpen) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute("BEGIN flies;").ok());
  EXPECT_TRUE(
      exec.Execute("DROP RELATION flies;").status().IsInvalidArgument());
  ASSERT_TRUE(exec.Execute("ABORT; DROP RELATION flies;").ok());
}

TEST(HqlExtensionsTest, FactsOutsideTheTransactionStillApplyDirectly) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute("CREATE RELATION swims (who: animal);").ok());
  ASSERT_TRUE(exec.Execute("BEGIN flies; ASSERT flies(ALL bird);").ok());
  // swims is not part of the transaction: applied immediately.
  ASSERT_TRUE(exec.Execute("ASSERT swims(ALL penguin);").ok());
  EXPECT_EQ(exec.database().GetRelation("swims").value()->size(), 1u);
  EXPECT_TRUE(exec.database().GetRelation("flies").value()->empty());
  ASSERT_TRUE(exec.Execute("COMMIT;").ok());
  EXPECT_EQ(exec.database().GetRelation("flies").value()->size(), 1u);
}

TEST(HqlExtensionsTest, SetPreemptionChangesSemantics) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(R"(
    CREATE CLASS galapagos IN animal UNDER penguin;
    CREATE INSTANCE patricia IN animal UNDER afp, galapagos;
    ASSERT flies(ALL bird);
    ASSERT flies(ALL afp);
    DENY flies(ALL penguin);
  )").ok());
  // Off-path (default): patricia flies.
  std::string off = exec.Execute("EXPLAIN flies(patricia);").value();
  EXPECT_NE(off.find("(patricia): +"), std::string::npos);
  // On-path: patricia is conflicted.
  ASSERT_TRUE(exec.Execute("SET PREEMPTION onpath;").ok());
  std::string on = exec.Execute("EXPLAIN flies(patricia);").value();
  EXPECT_NE(on.find("CONFLICT"), std::string::npos);
  // Back to off-path by name, case-insensitive.
  ASSERT_TRUE(exec.Execute("SET PREEMPTION OffPath;").ok());
  EXPECT_TRUE(exec.Execute("SET PREEMPTION sideways;")
                  .status()
                  .IsInvalidArgument());
}


TEST(HqlExtensionsTest, RulesRegisterDeriveAndShow) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(R"(
    ASSERT flies(ALL bird);
    DENY flies(ALL penguin);
    ASSERT flies(ALL afp);
    CREATE RELATION travels_far (who: animal);
    RULE 'travels_far(?x) :- flies(?x).';
  )").ok());
  std::string out = exec.Execute("DERIVE;").value();
  EXPECT_NE(out.find("derived 3 fact(s)"), std::string::npos);
  std::string rules = exec.Execute("SHOW RULES;").value();
  EXPECT_NE(rules.find("travels_far(?x) :- flies(?x)."), std::string::npos);
  std::string ext = exec.Execute("EXTENSION travels_far;").value();
  EXPECT_NE(ext.find("tweety"), std::string::npos);
  EXPECT_EQ(ext.find("paul"), std::string::npos);
}

TEST(HqlExtensionsTest, DeriveGuardsClassLevelHeads) {
  // ASSERT r(ALL a) is refused here (x under a and b, r denies all b), and
  // DERIVE must not slip the same fact past the guard.
  Executor exec;
  ASSERT_TRUE(exec.Execute(R"(
    CREATE HIERARCHY h;
    CREATE CLASS a IN h;
    CREATE CLASS b IN h;
    CREATE INSTANCE x IN h UNDER a, b;
    CREATE RELATION src (z: h);
    CREATE RELATION r (v: h);
    ASSERT src(x);
    DENY r(ALL b);
  )").ok());
  Result<std::string> asserted = exec.Execute("ASSERT r(ALL a);");
  ASSERT_TRUE(asserted.status().IsConflict());
  ASSERT_TRUE(exec.Execute("RULE 'r(ALL a) :- src(?z).';").ok());
  Result<std::string> derived = exec.Execute("DERIVE;");
  ASSERT_TRUE(derived.status().IsConflict()) << derived.status();
  EXPECT_EQ(derived.status().message(), asserted.status().message());
  std::string explained = exec.Execute("EXPLAIN r(x);").value();
  EXPECT_EQ(explained.find("CONFLICT"), std::string::npos) << explained;
}

TEST(HqlExtensionsTest, BadRuleRejectedAtRegistration) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  EXPECT_TRUE(exec.Execute("RULE 'nothing(?x) :- flies(?x).';")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(exec.Execute("RULE 'flies(?y) :- flies(?x).';")
                  .status()
                  .IsInvalidArgument());
  // Failed registrations leave no rule behind.
  std::string rules = exec.Execute("SHOW RULES;").value();
  EXPECT_EQ(rules, "rules:\n");
}


TEST(HqlExtensionsTest, CountAndRollUp) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(R"(
    ASSERT flies(ALL bird);
    DENY flies(ALL penguin);
    ASSERT flies(ALL afp);
  )").ok());
  std::string count = exec.Execute("COUNT flies;").value();
  EXPECT_NE(count.find("count(flies) = 3"), std::string::npos);
  std::string rollup = exec.Execute("COUNT flies BY who;").value();
  EXPECT_NE(rollup.find("bird: 3"), std::string::npos);
  EXPECT_TRUE(exec.Execute("COUNT flies BY nope;").status().IsNotFound());
}


TEST(HqlExtensionsTest, ShowSubsumptionAndBinding) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute(R"(
    ASSERT flies(ALL bird);
    DENY flies(ALL penguin);
    ASSERT flies(ALL afp);
  )").ok());
  std::string subsumption = exec.Execute("SHOW SUBSUMPTION flies;").value();
  EXPECT_NE(subsumption.find("universal"), std::string::npos);
  EXPECT_NE(subsumption.find("(bird)"), std::string::npos);
  std::string binding = exec.Execute("SHOW BINDING flies(pamela);").value();
  EXPECT_NE(binding.find("tuple-binding graph for (pamela)"),
            std::string::npos);
  EXPECT_NE(binding.find("<item>"), std::string::npos);
  EXPECT_TRUE(exec.Execute("SHOW BINDING nope(x);").status().IsNotFound());
}

TEST(HqlExtensionsTest, DropClassRunsNodeElimination) {
  Executor exec;
  ASSERT_TRUE(exec.Execute(kTreeZoo).ok());
  ASSERT_TRUE(exec.Execute("ASSERT flies(ALL bird);").ok());
  // penguin carries no tuple: safe to eliminate; paul is reconnected
  // under bird by the node-elimination procedure.
  ASSERT_TRUE(exec.Execute("DROP CLASS penguin IN animal;").ok());
  Hierarchy* animal = exec.database().GetHierarchy("animal").value();
  EXPECT_TRUE(animal->FindClass("penguin").status().IsNotFound());
  NodeId bird = animal->FindClass("bird").value();
  NodeId paul = animal->FindInstance(Value::String("paul")).value();
  EXPECT_TRUE(animal->Subsumes(bird, paul));
  // bird DOES carry a tuple: elimination refused.
  EXPECT_TRUE(exec.Execute("DROP CLASS bird IN animal;").status()
                  .IsIntegrityViolation());
  // Instances can be eliminated too.
  ASSERT_TRUE(exec.Execute("DROP INSTANCE paul IN animal;").ok());
  EXPECT_TRUE(
      animal->FindInstance(Value::String("paul")).status().IsNotFound());
}

}  // namespace
}  // namespace hql
}  // namespace hirel
