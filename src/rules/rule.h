// Datalog-style rules over hierarchical relations.
//
// Section 2.1 distinguishes the taxonomy (the hierarchy) from association
// (the relations), and notes that the lost semantic-net inference — "Tweety
// can travel far since flying things can travel far" — is recovered "through
// the use of logic programming, such as PROLOG or DATALOG, on top of our
// hierarchical data model", yielding "an even more powerful inference
// mechanism with no loss of succinctness". This module supplies that layer:
//
//   travels_far(?x) :- flies(?x).
//   respected_flyer(?x) :- flies(?x), respects(?s, ?x).
//   grounded(?x)    :- bird(?x), not flies(?x).
//
// Body atoms are evaluated over relation *extensions* (hierarchical
// inference resolves all exceptions first), so a rule body sees exactly
// the closed-world facts. A class constant in a positive body atom is a
// membership constraint ("?x is a penguin"); head constants may be classes,
// so rules can derive class-level facts. Negation is negation-as-failure
// with stratification (a program whose negations cycle is rejected).

#ifndef HIREL_RULES_RULE_H_
#define HIREL_RULES_RULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "core/binding.h"
#include "obs/trace.h"

namespace hirel {

/// One argument of a rule atom: a variable or a resolved hierarchy node.
struct RuleArg {
  enum class Kind { kVariable, kNode };
  Kind kind = Kind::kVariable;
  std::string variable;      // for kVariable (without the leading '?')
  NodeId node = kInvalidNode;  // for kNode

  static RuleArg Var(std::string name) {
    return RuleArg{Kind::kVariable, std::move(name), kInvalidNode};
  }
  static RuleArg Node(NodeId node) {
    return RuleArg{Kind::kNode, "", node};
  }
};

/// One literal: a (possibly negated) relation atom.
struct RuleAtom {
  std::string relation;
  std::vector<RuleArg> args;
  bool negated = false;
};

/// head :- body. An empty body makes the rule an unconditional fact.
struct Rule {
  RuleAtom head;
  std::vector<RuleAtom> body;

  /// "travels_far(?x) :- flies(?x)."-style rendering.
  std::string ToString(const Database& db) const;
};

/// Join work of one Evaluate, summed over every fixpoint round.
struct RuleStats {
  /// Body rows visited, by scans and through partial indexes.
  size_t rows_scanned = 0;
  /// Index lookups: membership probes of fully bound and negated atoms,
  /// and partial-index lookups.
  size_t probes = 0;
};

/// Evaluation limits.
struct RuleOptions {
  InferenceOptions inference;
  /// Cap on derived facts across all head relations (kResourceExhausted).
  size_t max_derived_facts = 1'000'000;
  /// Cap on fixpoint rounds per stratum.
  size_t max_rounds = 10'000;
  /// When non-null, Evaluate records one child span per fixpoint round
  /// ("derive round N" with stratum/derived/scanned/probes notes) under
  /// the innermost open span. Null leaves evaluation untraced.
  obs::Trace* trace = nullptr;

  /// When non-null, Evaluate adds its join work here.
  RuleStats* stats = nullptr;
};

/// A set of rules bound to a database, evaluated bottom-up to fixpoint.
class RuleEngine {
 public:
  explicit RuleEngine(Database* db) : db_(db) {}

  /// Parses "head(args) :- lit, lit, ... ." (the trailing '.' optional).
  /// Variables are ?name; constants are resolved against the attribute's
  /// hierarchy (bare name, 'quoted string', integer, or float).
  Result<Rule> ParseRule(std::string_view text) const;

  /// Validates and adds a rule:
  ///  * head relation exists and arities match;
  ///  * safety: every head variable and every negated-atom variable occurs
  ///    in some positive body atom;
  ///  * class constants are not allowed in negated atoms.
  Status AddRule(Rule rule);

  /// Convenience: ParseRule + AddRule.
  Status AddRule(std::string_view text);

  const std::vector<Rule>& rules() const { return rules_; }

  /// Evaluates the program: stratifies, then computes each stratum to
  /// fixpoint, inserting derived facts as positive tuples into the head
  /// relations. Returns the number of facts derived. Fails with
  /// kInvalidArgument on non-stratifiable programs, and with kConflict when
  /// a class-level head fact would violate the ambiguity constraint (facts
  /// derived before it stay).
  ///
  /// Each rule is compiled once: variables get dense slots, an atom whose
  /// positions are all known when the join reaches it is one membership
  /// probe, a partly known one is looked up in a lazily built partial
  /// index, and the rest are scanned. Derived facts come out in the order
  /// of a nested scan over every body row.
  ///
  /// Between fixpoint rounds a relation whose version stamp is unchanged is
  /// not re-scanned, and one holding only positive atomic tuples (the shape
  /// derived relations converge to) is extended by its journalled inserts.
  /// Any other extension is read through the plan executor, which reuses
  /// the Database's cached subsumption graphs.
  Result<size_t> Evaluate(const RuleOptions& options = {});

 private:
  Database* db_;
  std::vector<Rule> rules_;
};

}  // namespace hirel

#endif  // HIREL_RULES_RULE_H_
