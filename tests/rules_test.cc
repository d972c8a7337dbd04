#include "rules/rule.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/explicate.h"
#include "core/inference.h"
#include "core/integrity.h"
#include "reference_rules.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::FlyingFixture;

/// Fig. 1 database plus an empty travels_far relation, the paper's own
/// example of what the Datalog layer should recover.
struct RulesFixture {
  RulesFixture() : engine(&zoo.db) {
    travels_far =
        zoo.db.CreateRelation("travels_far", {{"who", "animal"}}).value();
    grounded =
        zoo.db.CreateRelation("grounded", {{"who", "animal"}}).value();
  }
  FlyingFixture zoo;
  HierarchicalRelation* travels_far;
  HierarchicalRelation* grounded;
  RuleEngine engine;
};

TEST(RulesTest, TweetyCanTravelFar) {
  // "we lose the ability to infer automatically ... that Tweety can travel
  // far since flying things can travel far. However, through the use of
  // logic programming ... we are able to provide an even more powerful
  // inference mechanism."
  RulesFixture f;
  ASSERT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x).").ok());
  size_t derived = f.engine.Evaluate().value();
  // ext(flies) = {tweety, pamela, patricia, peter}.
  EXPECT_EQ(derived, 4u);
  EXPECT_EQ(InferTruth(*f.travels_far, {f.zoo.tweety}).value(),
            Truth::kPositive);
  EXPECT_EQ(InferTruth(*f.travels_far, {f.zoo.paul}).value(),
            Truth::kNegative);
}

TEST(RulesTest, CachedFixpointMatchesUncached) {
  // With a subsumption cache DERIVE reads each body's extension through
  // the plan executor; the fixpoint must be the one the direct path finds.
  std::string uncached;
  for (bool cached : {false, true}) {
    RulesFixture f;
    ASSERT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x).").ok());
    RuleOptions options;
    if (cached) options.subsumption_cache = &f.zoo.db.subsumption_cache();
    EXPECT_EQ(f.engine.Evaluate(options).value(), 4u) << "cached " << cached;
    EXPECT_EQ(Extension(*f.travels_far).value(),
              Extension(*f.zoo.flies).value())
        << "cached " << cached;
    if (!cached) {
      uncached = f.travels_far->ToString();
    } else {
      EXPECT_EQ(f.travels_far->ToString(), uncached);
    }
  }
}

TEST(RulesTest, EvaluationIsIdempotent) {
  RulesFixture f;
  ASSERT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x).").ok());
  ASSERT_TRUE(f.engine.Evaluate().ok());
  EXPECT_EQ(f.engine.Evaluate().value(), 0u);
}

TEST(RulesTest, ClassConstantConstrainsMembership) {
  RulesFixture f;
  // Only flying penguins travel far.
  ASSERT_TRUE(
      f.engine.AddRule("travels_far(?x) :- flies(?x), swims(ALL penguin)")
          .IsNotFound());  // no swims relation: parse-time validation
  ASSERT_TRUE(f.engine
                  .AddRule("travels_far(?x) :- flies(?x), "
                           "flies(ALL amazing_flying_penguin).")
                  .ok());
  // The second atom is a ground membership test... with a class constant
  // it matches any row within the class: pamela/patricia/peter satisfy it,
  // so the body holds and every flyer travels far.
  EXPECT_EQ(f.engine.Evaluate().value(), 4u);
}

TEST(RulesTest, VariableWithClassConstantFilter) {
  RulesFixture f;
  // travels_far(?x) for penguins only: join the class constraint onto ?x.
  ASSERT_TRUE(f.engine
                  .AddRule(
                      "travels_far(?x) :- flies(?x), jillish(ALL penguin, ?x)")
                  .IsNotFound());
  HierarchicalRelation* penguinhood =
      f.zoo.db.CreateRelation("penguinhood", {{"who", "animal"}}).value();
  ASSERT_TRUE(
      penguinhood->Insert({f.zoo.penguin}, Truth::kPositive).ok());
  ASSERT_TRUE(
      f.engine.AddRule("travels_far(?x) :- flies(?x), penguinhood(?x).")
          .ok());
  EXPECT_EQ(f.engine.Evaluate().value(), 3u);  // pamela, patricia, peter
  EXPECT_FALSE(f.travels_far->FindItem({f.zoo.tweety}).has_value());
}

TEST(RulesTest, NegationAsFailure) {
  RulesFixture f;
  HierarchicalRelation* birds =
      f.zoo.db.CreateRelation("is_bird", {{"who", "animal"}}).value();
  ASSERT_TRUE(birds->Insert({f.zoo.bird}, Truth::kPositive).ok());
  ASSERT_TRUE(
      f.engine.AddRule("grounded(?x) :- is_bird(?x), not flies(?x).").ok());
  EXPECT_EQ(f.engine.Evaluate().value(), 1u);
  EXPECT_TRUE(f.grounded->FindItem({f.zoo.paul}).has_value());
}

TEST(RulesTest, RecursiveRulesReachFixpoint) {
  // Transitive closure: the classic Datalog test.
  Database db;
  Hierarchy* node = db.CreateHierarchy("node").value();
  std::vector<NodeId> n;
  for (int i = 0; i < 5; ++i) {
    n.push_back(
        node->AddInstance(Value::String("n" + std::to_string(i))).value());
  }
  HierarchicalRelation* edge =
      db.CreateRelation("edge", {{"a", "node"}, {"b", "node"}}).value();
  HierarchicalRelation* path =
      db.CreateRelation("path", {{"a", "node"}, {"b", "node"}}).value();
  for (int i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(edge->Insert({n[i], n[i + 1]}, Truth::kPositive).ok());
  }
  RuleEngine engine(&db);
  ASSERT_TRUE(engine.AddRule("path(?a, ?b) :- edge(?a, ?b).").ok());
  ASSERT_TRUE(
      engine.AddRule("path(?a, ?c) :- path(?a, ?b), edge(?b, ?c).").ok());
  EXPECT_EQ(engine.Evaluate().value(), 10u);  // C(5,2) ordered pairs
  EXPECT_TRUE(path->FindItem({n[0], n[4]}).has_value());
  EXPECT_FALSE(path->FindItem({n[4], n[0]}).has_value());
}

TEST(RulesTest, StratifiedNegationAcrossIdb) {
  RulesFixture f;
  HierarchicalRelation* birds =
      f.zoo.db.CreateRelation("is_bird", {{"who", "animal"}}).value();
  ASSERT_TRUE(birds->Insert({f.zoo.bird}, Truth::kPositive).ok());
  // Stratum 0: travels_far; stratum 1: grounded (negates an IDB).
  ASSERT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x).").ok());
  ASSERT_TRUE(
      f.engine.AddRule("grounded(?x) :- is_bird(?x), not travels_far(?x).")
          .ok());
  ASSERT_TRUE(f.engine.Evaluate().ok());
  EXPECT_TRUE(f.grounded->FindItem({f.zoo.paul}).has_value());
  EXPECT_FALSE(f.grounded->FindItem({f.zoo.tweety}).has_value());
}

TEST(RulesTest, NonStratifiableProgramRejected) {
  RulesFixture f;
  ASSERT_TRUE(
      f.engine.AddRule("travels_far(?x) :- flies(?x), not grounded(?x).")
          .ok());
  ASSERT_TRUE(
      f.engine.AddRule("grounded(?x) :- flies(?x), not travels_far(?x).")
          .ok());
  EXPECT_TRUE(f.engine.Evaluate().status().IsInvalidArgument());
}

TEST(RulesTest, SafetyViolationsRejected) {
  RulesFixture f;
  // Head variable never bound positively.
  EXPECT_TRUE(f.engine.AddRule("travels_far(?y) :- flies(?x).")
                  .IsInvalidArgument());
  // Negated-atom variable never bound positively.
  EXPECT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x), "
                               "not grounded(?y).")
                  .IsInvalidArgument());
  // Class constant in a negated atom.
  EXPECT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x), "
                               "not grounded(ALL bird).")
                  .IsInvalidArgument());
}

TEST(RulesTest, FactRulesAndClassHeads) {
  RulesFixture f;
  // An unconditional class-level fact.
  ASSERT_TRUE(f.engine.AddRule("travels_far(ALL bird).").ok());
  EXPECT_EQ(f.engine.Evaluate().value(), 1u);
  EXPECT_EQ(f.travels_far->TruthAt({f.zoo.bird}), Truth::kPositive);
  // All birds now travel far, via class-level inference.
  EXPECT_EQ(InferTruth(*f.travels_far, {f.zoo.paul}).value(),
            Truth::kPositive);
}

TEST(RulesTest, ParseErrorsCarryContext) {
  RulesFixture f;
  EXPECT_TRUE(f.engine.ParseRule("travels_far(?x").status().IsParseError());
  EXPECT_TRUE(f.engine.ParseRule("nope(?x).").status().IsNotFound());
  EXPECT_TRUE(f.engine.ParseRule("travels_far(?x) :- flies(?x) garbage")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      f.engine.ParseRule("travels_far(?x, ?y) :- flies(?x).").status()
          .IsParseError());
}

TEST(RulesTest, ToStringRoundTripsShape) {
  RulesFixture f;
  Rule rule =
      f.engine.ParseRule("grounded(?x) :- flies(?x), not travels_far(?x).")
          .value();
  std::string text = rule.ToString(f.zoo.db);
  EXPECT_EQ(text, "grounded(?x) :- flies(?x), not travels_far(?x).");
  // The rendering reparses to an equivalent rule.
  EXPECT_TRUE(f.engine.ParseRule(text).ok());
}

TEST(RulesTest, DerivedFactCapEnforced) {
  RulesFixture f;
  ASSERT_TRUE(f.engine.AddRule("travels_far(?x) :- flies(?x).").ok());
  RuleOptions options;
  options.max_derived_facts = 2;
  EXPECT_TRUE(f.engine.Evaluate(options).status().IsResourceExhausted());
}

TEST(RulesTest, MultiAttributeJoinAcrossRelations) {
  // respected_flyer(?t) :- flies(?t), respects(?s, ?t): join over two
  // relations with a shared variable.
  Database db;
  Hierarchy* animal = db.CreateHierarchy("animal").value();
  NodeId bird = animal->AddClass("bird").value();
  NodeId tweety =
      animal->AddInstance(Value::String("tweety"), bird).value();
  NodeId rex = animal->AddInstance(Value::String("rex")).value();
  (void)rex;
  Hierarchy* person = db.CreateHierarchy("person").value();
  NodeId sam = person->AddInstance(Value::String("sam")).value();
  (void)sam;

  HierarchicalRelation* flies =
      db.CreateRelation("flies", {{"who", "animal"}}).value();
  ASSERT_TRUE(flies->Insert({bird}, Truth::kPositive).ok());
  HierarchicalRelation* admires = db.CreateRelation(
      "admires", {{"who", "person"}, {"what", "animal"}}).value();
  ASSERT_TRUE(
      admires->Insert({person->root(), bird}, Truth::kPositive).ok());
  HierarchicalRelation* respected =
      db.CreateRelation("respected_flyer", {{"what", "animal"}}).value();

  RuleEngine engine(&db);
  ASSERT_TRUE(
      engine.AddRule("respected_flyer(?t) :- flies(?t), admires(?s, ?t).")
          .ok());
  EXPECT_EQ(engine.Evaluate().value(), 1u);
  EXPECT_TRUE(respected->FindItem({tweety}).has_value());
}

TEST(RulesTest, ClassLevelHeadFactIsGuarded) {
  // x sits under a and b. r denies all b; deriving r(ALL a) would leave x
  // with two incomparable binders of opposite truth, which a plain ASSERT
  // refuses (Section 3.1), so DERIVE must refuse it too.
  Database db;
  Hierarchy* h = db.CreateHierarchy("h").value();
  NodeId a = h->AddClass("a").value();
  NodeId b = h->AddClass("b").value();
  NodeId x = h->AddInstance(Value::String("x"), a).value();
  ASSERT_TRUE(h->AddEdge(b, x).ok());
  HierarchicalRelation* src = db.CreateRelation("src", {{"z", "h"}}).value();
  ASSERT_TRUE(src->Insert({x}, Truth::kPositive).ok());
  HierarchicalRelation* r = db.CreateRelation("r", {{"v", "h"}}).value();
  ASSERT_TRUE(r->Insert({b}, Truth::kNegative).ok());
  RuleEngine engine(&db);
  ASSERT_TRUE(engine.AddRule("r(ALL a) :- src(?z).").ok());
  Result<size_t> derived = engine.Evaluate();
  EXPECT_TRUE(derived.status().IsConflict()) << derived.status();
  EXPECT_FALSE(r->FindItem({a}).has_value());
  EXPECT_TRUE(CheckAmbiguity(*r).ok());
}

TEST(RulesTest, NegatedAtomBeforeItsBinder) {
  // Negation is checked once the positive atoms bound its variables,
  // wherever it stands in the body.
  RulesFixture f;
  HierarchicalRelation* birds =
      f.zoo.db.CreateRelation("is_bird", {{"who", "animal"}}).value();
  ASSERT_TRUE(birds->Insert({f.zoo.bird}, Truth::kPositive).ok());
  ASSERT_TRUE(
      f.engine.AddRule("grounded(?x) :- not flies(?x), is_bird(?x).").ok());
  EXPECT_EQ(f.engine.Evaluate().value(), 1u);
  EXPECT_TRUE(f.grounded->FindItem({f.zoo.paul}).has_value());
}

// ----- Differential oracle: compiled joins vs the nested-loop reference -----

/// What one evaluation leaves behind: its result (or error text), every
/// relation's tuples in id order, and each round span's notes.
struct OracleOutcome {
  std::string result;
  std::vector<std::string> relations;
  std::vector<std::string> rounds;
  RuleStats stats;
};

/// Builds a seeded random database and program, evaluates it with the
/// reference or the compiled evaluator, and records the outcome. Both sides
/// rebuild everything from the seed, so they start from identical state.
OracleOutcome RunRandomProgram(uint64_t seed, bool reference) {
  Random rng(seed);
  Database db;
  // d: c0 over c1 and c2; c3 under both (multiple inheritance). k: one
  // class over two instances, and one instance under the root.
  Hierarchy* d = db.CreateHierarchy("d").value();
  std::vector<NodeId> d_classes;
  d_classes.push_back(d->AddClass("c0").value());
  d_classes.push_back(d->AddClass("c1", d_classes[0]).value());
  d_classes.push_back(d->AddClass("c2", d_classes[0]).value());
  d_classes.push_back(d->AddClass("c3", d_classes[1]).value());
  EXPECT_TRUE(d->AddEdge(d_classes[2], d_classes[3]).ok());
  std::vector<NodeId> d_instances;
  for (int i = 0; i < 7; ++i) {
    NodeId parent = d_classes[rng.Index(d_classes.size())];
    NodeId x = d->AddInstance(Value::String(StrCat("x", i)), parent).value();
    NodeId other = d_classes[rng.Index(d_classes.size())];
    if (rng.Bernoulli(0.3) && other != parent &&
        !d->Subsumes(other, parent) && !d->Subsumes(parent, other)) {
      EXPECT_TRUE(d->AddEdge(other, x).ok());
    }
    d_instances.push_back(x);
  }
  Hierarchy* k = db.CreateHierarchy("k").value();
  std::vector<NodeId> k_classes{k->AddClass("k0").value()};
  std::vector<NodeId> k_instances{
      k->AddInstance(Value::String("y0"), k_classes[0]).value(),
      k->AddInstance(Value::String("y1"), k_classes[0]).value(),
      k->AddInstance(Value::String("y2")).value()};

  // Relations of 1-3 attributes; position hierarchies: 'd' or 'k'.
  const std::vector<std::string> shapes{"d", "dd", "dkd"};
  for (size_t n = 0; n < shapes.size(); ++n) {
    for (const char* prefix : {"e", "i"}) {
      std::vector<std::pair<std::string, std::string>> attrs;
      for (size_t i = 0; i < shapes[n].size(); ++i) {
        attrs.emplace_back(StrCat("a", i), std::string(1, shapes[n][i]));
      }
      EXPECT_TRUE(db.CreateRelation(StrCat(prefix, n + 1), attrs).ok());
    }
  }
  // EDB: atomic and class-level tuples of both truths, kept consistent.
  for (size_t n = 0; n < shapes.size(); ++n) {
    HierarchicalRelation* e = db.GetRelation(StrCat("e", n + 1)).value();
    size_t tuples = 3 + rng.Index(10);
    for (size_t t = 0; t < tuples; ++t) {
      Item item;
      for (char c : shapes[n]) {
        const std::vector<NodeId>& classes = c == 'd' ? d_classes : k_classes;
        const std::vector<NodeId>& instances =
            c == 'd' ? d_instances : k_instances;
        item.push_back(rng.Bernoulli(0.8)
                           ? instances[rng.Index(instances.size())]
                           : classes[rng.Index(classes.size())]);
      }
      if (e->FindItem(item).has_value()) continue;
      (void)GuardedInsert(*e, item,
                          rng.Bernoulli(0.8) ? Truth::kPositive
                                             : Truth::kNegative);
    }
  }
  // IDB relations may start with a class-level exception, so that a
  // class-level head fact can conflict with it.
  for (size_t n = 0; n < shapes.size(); ++n) {
    if (!rng.Bernoulli(0.5)) continue;
    Item item;
    for (char c : shapes[n]) {
      item.push_back(c == 'd' ? d_classes[1 + rng.Index(3)] : k_classes[0]);
    }
    EXPECT_TRUE(db.GetRelation(StrCat("i", n + 1))
                    .value()
                    ->Insert(item, Truth::kNegative)
                    .ok());
  }

  // Rules. Positive IDB atoms read relations at or below the head's index
  // and negated ones strictly below, so every program stratifies.
  auto pick_node = [&](char c, bool allow_class) {
    const char* cls[] = {"c0", "c1", "c2", "c3"};
    if (allow_class && rng.Bernoulli(0.5)) {
      return c == 'd' ? StrCat("ALL ", cls[rng.Index(4)])
                      : std::string("ALL k0");
    }
    return c == 'd' ? StrCat("x", rng.Index(d_instances.size()))
                    : StrCat("y", rng.Index(k_instances.size()));
  };
  RuleEngine engine(&db);
  if (rng.Bernoulli(0.3)) {
    EXPECT_TRUE(engine.AddRule("i2(?a, ?b) :- e2(?a, ?b).").ok());
    EXPECT_TRUE(engine.AddRule("i2(?a, ?c) :- i2(?a, ?b), e2(?b, ?c).").ok());
  }
  size_t rules = 1 + rng.Index(4);
  for (size_t r = 0; r < rules; ++r) {
    size_t head = rng.Index(shapes.size());
    std::vector<std::string> used_d, used_k;
    std::string body;
    size_t positive = 1 + rng.Index(3);
    for (size_t p = 0; p < positive; ++p) {
      size_t rel = rng.Index(shapes.size());
      bool idb = rng.Bernoulli(0.35) && rel <= head;
      if (!body.empty()) body += ", ";
      body += StrCat(idb ? "i" : "e", rel + 1, "(");
      for (size_t i = 0; i < shapes[rel].size(); ++i) {
        char c = shapes[rel][i];
        if (i > 0) body += ", ";
        if (rng.Bernoulli(0.6)) {
          std::string var =
              c == 'd' ? std::string(1, "abc"[rng.Index(3)])
                       : std::string(1, "km"[rng.Index(2)]);
          (c == 'd' ? used_d : used_k).push_back(var);
          body += "?" + var;
        } else {
          body += pick_node(c, /*allow_class=*/true);
        }
      }
      body += ")";
    }
    if (rng.Bernoulli(0.35)) {
      size_t rel = rng.Index(shapes.size());
      bool idb = rel < head && rng.Bernoulli(0.5);
      body += StrCat(", not ", idb ? "i" : "e", rel + 1, "(");
      for (size_t i = 0; i < shapes[rel].size(); ++i) {
        char c = shapes[rel][i];
        const std::vector<std::string>& used = c == 'd' ? used_d : used_k;
        if (i > 0) body += ", ";
        body += !used.empty() && rng.Bernoulli(0.8)
                    ? "?" + used[rng.Index(used.size())]
                    : pick_node(c, /*allow_class=*/false);
      }
      body += ")";
    }
    std::string head_text = StrCat("i", head + 1, "(");
    for (size_t i = 0; i < shapes[head].size(); ++i) {
      char c = shapes[head][i];
      const std::vector<std::string>& used = c == 'd' ? used_d : used_k;
      if (i > 0) head_text += ", ";
      if (rng.Bernoulli(0.2)) {
        head_text += pick_node(c, /*allow_class=*/true);
      } else if (!used.empty() && rng.Bernoulli(0.85)) {
        head_text += "?" + used[rng.Index(used.size())];
      } else {
        head_text += pick_node(c, /*allow_class=*/false);
      }
    }
    (void)engine.AddRule(head_text + ") :- " + body + ".");
  }

  RuleOptions options;
  if (rng.Bernoulli(0.3)) options.max_derived_facts = 1 + rng.Index(20);
  if (rng.Bernoulli(0.5)) options.subsumption_cache = &db.subsumption_cache();
  options.incremental = rng.Bernoulli(0.7);
  obs::Trace trace;
  options.trace = &trace;
  OracleOutcome out;
  options.stats = &out.stats;
  Result<size_t> derived =
      reference ? testing::ReferenceEvaluate(db, engine.rules(), options)
                : engine.Evaluate(options);
  out.result = derived.ok() ? StrCat("derived ", *derived)
                            : derived.status().ToString();
  for (const char* prefix : {"e", "i"}) {
    for (size_t n = 0; n < shapes.size(); ++n) {
      const HierarchicalRelation* relation =
          db.GetRelation(StrCat(prefix, n + 1)).value();
      std::string content;
      for (TupleId id : relation->TupleIds()) {
        TupleView t = relation->tuple(id);
        content += StrCat(id, " ", TruthToString(t.truth),
                          ItemToString(relation->schema(), t.item), "; ");
      }
      out.relations.push_back(std::move(content));
    }
  }
  for (const auto& span : trace.spans()) {
    std::string notes = span->name;
    for (const auto& [key, value] : span->notes) {
      if (key == "stratum" || key == "derived") {
        notes += StrCat(" ", key, "=", value);
      }
    }
    out.rounds.push_back(std::move(notes));
  }
  return out;
}

TEST(RulesOracleTest, CompiledJoinsMatchTheNestedLoop) {
  size_t derived_some = 0, conflicts = 0, capped = 0, multi_round = 0;
  RuleStats total;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    OracleOutcome expected = RunRandomProgram(seed, /*reference=*/true);
    OracleOutcome actual = RunRandomProgram(seed, /*reference=*/false);
    ASSERT_EQ(actual.result, expected.result) << "seed " << seed;
    ASSERT_EQ(actual.relations, expected.relations) << "seed " << seed;
    ASSERT_EQ(actual.rounds, expected.rounds) << "seed " << seed;
    derived_some += expected.result.rfind("derived ", 0) == 0 &&
                    expected.result != "derived 0";
    conflicts += expected.result.find("conflict") != std::string::npos;
    capped += expected.result.find("derived facts") != std::string::npos;
    multi_round += expected.rounds.size() > 2;
    total.rows_scanned += actual.stats.rows_scanned;
    total.probes += actual.stats.probes;
  }
  // The seeds reach every path the oracle is meant to cover.
  EXPECT_GT(derived_some, 100u);
  EXPECT_GT(conflicts, 2u);
  EXPECT_GT(capped, 10u);
  EXPECT_GT(multi_round, 20u);
  EXPECT_GT(total.probes, 0u);
  EXPECT_GT(total.rows_scanned, 0u);
}


// Property: on random edge relations, the recursive path program computes
// exactly graph reachability (checked against a brute-force closure).
class RulesProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RulesProperty, TransitiveClosureMatchesBruteForce) {
  Random rng(GetParam());
  constexpr size_t kNodes = 8;
  Database db;
  Hierarchy* node = db.CreateHierarchy("node").value();
  std::vector<NodeId> n;
  for (size_t i = 0; i < kNodes; ++i) {
    n.push_back(
        node->AddInstance(Value::Int(static_cast<int64_t>(i))).value());
  }
  HierarchicalRelation* edge =
      db.CreateRelation("edge", {{"a", "node"}, {"b", "node"}}).value();
  HierarchicalRelation* path =
      db.CreateRelation("path", {{"a", "node"}, {"b", "node"}}).value();
  bool adj[kNodes][kNodes] = {};
  for (size_t a = 0; a < kNodes; ++a) {
    for (size_t b = 0; b < kNodes; ++b) {
      if (a != b && rng.Bernoulli(0.2)) {
        adj[a][b] = true;
        ASSERT_TRUE(edge->Insert({n[a], n[b]}, Truth::kPositive).ok());
      }
    }
  }
  RuleEngine engine(&db);
  ASSERT_TRUE(engine.AddRule("path(?a, ?b) :- edge(?a, ?b).").ok());
  ASSERT_TRUE(
      engine.AddRule("path(?a, ?c) :- path(?a, ?b), edge(?b, ?c).").ok());
  ASSERT_TRUE(engine.Evaluate().ok());

  // Brute-force closure (Floyd-Warshall).
  bool reach[kNodes][kNodes];
  for (size_t a = 0; a < kNodes; ++a) {
    for (size_t b = 0; b < kNodes; ++b) reach[a][b] = adj[a][b];
  }
  for (size_t k = 0; k < kNodes; ++k) {
    for (size_t a = 0; a < kNodes; ++a) {
      for (size_t b = 0; b < kNodes; ++b) {
        reach[a][b] = reach[a][b] || (reach[a][k] && reach[k][b]);
      }
    }
  }
  for (size_t a = 0; a < kNodes; ++a) {
    for (size_t b = 0; b < kNodes; ++b) {
      EXPECT_EQ(path->FindItem({n[a], n[b]}).has_value(), reach[a][b])
          << "seed " << GetParam() << ": " << a << " -> " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace hirel
