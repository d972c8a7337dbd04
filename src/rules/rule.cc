#include "rules/rule.h"

#include <cctype>
#include <cstdlib>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <algorithm>

#include "common/str_util.h"
#include "core/explicate.h"
#include "core/integrity.h"
#include "plan/execute.h"
#include "plan/plan_node.h"

namespace hirel {

namespace {

/// Minimal cursor-based lexer for the rule syntax.
class RuleCursor {
 public:
  explicit RuleCursor(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Accept(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Accept(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Result<std::string> Identifier() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start ||
        std::isdigit(static_cast<unsigned char>(text_[start]))) {
      return Status::ParseError(
          StrCat("rule: expected identifier at offset ", start));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  size_t position() const { return pos_; }
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  std::string_view text() const { return text_; }
  void Advance() { ++pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

using ExtensionSet = std::unordered_set<Item, ItemHash>;
/// Row numbers of a snapshot, ascending, keyed by the values at some of
/// its positions.
using RowIndex = std::unordered_map<Item, std::vector<size_t>, ItemHash>;

struct RelationFacts {
  std::vector<Item> rows;
  ExtensionSet index;
  /// Partial indexes over `rows`, one per set of key positions, built on
  /// first use and dropped whenever `rows` changes. A deque, so an index
  /// a join is iterating stays put while a deeper atom builds another.
  std::deque<std::pair<std::vector<size_t>, RowIndex>> partial;
  /// Relation version stamp the slot reflects (0 = never refreshed).
  uint64_t version = 0;
  /// Rows came from the all-atomic-positive fast path, so the slot can be
  /// extended by journalled inserts without a rescan.
  bool atomic_positive = false;

  const RowIndex& PartialIndex(const std::vector<size_t>& positions) {
    for (const auto& [key_positions, index] : partial) {
      if (key_positions == positions) return index;
    }
    RowIndex& index = partial.emplace_back(positions, RowIndex()).second;
    Item key(positions.size());
    for (size_t n = 0; n < rows.size(); ++n) {
      for (size_t i = 0; i < positions.size(); ++i) {
        key[i] = rows[n][positions[i]];
      }
      index[key].push_back(n);
    }
    return index;
  }
};

/// One argument of a compiled atom. Applied to a candidate row in
/// position order, so a variable repeated within one atom binds at its
/// first occurrence and is compared at the rest.
struct ArgStep {
  enum class Op : uint8_t {
    kBind,      // variable not bound yet: take the row's value
    kEqual,     // variable already bound: the row must carry its value
    kInstance,  // instance constant: the row must carry it
    kClass,     // class constant: the row's value must lie under it
  };
  Op op = Op::kBind;
  size_t slot = 0;             // kBind / kEqual: the variable's slot
  NodeId node = kInvalidNode;  // kInstance / kClass
};

/// A body atom whose variables are resolved to dense binding slots, with
/// the positions already known when the join reaches it.
struct CompiledAtom {
  const std::string* relation = nullptr;
  RelationFacts* facts = nullptr;
  const Schema* schema = nullptr;
  std::vector<ArgStep> args;
  /// Positions holding an instance constant or a variable bound by an
  /// earlier atom, ascending. All positions known: one membership probe
  /// of the snapshot's index. Some: a partial-index lookup. None: a scan.
  std::vector<size_t> key_positions;
  /// Lookup key, refilled before each probe.
  Item key;

  void FillKey(const std::vector<NodeId>& vars) {
    for (size_t i = 0; i < key_positions.size(); ++i) {
      const ArgStep& arg = args[key_positions[i]];
      key[i] = arg.op == ArgStep::Op::kEqual ? vars[arg.slot] : arg.node;
    }
  }

  /// Applies the argument steps to `row`, binding fresh variables.
  bool Accept(const Item& row, std::vector<NodeId>& vars) const {
    for (size_t i = 0; i < args.size(); ++i) {
      const ArgStep& arg = args[i];
      switch (arg.op) {
        case ArgStep::Op::kBind:
          vars[arg.slot] = row[i];
          break;
        case ArgStep::Op::kEqual:
          if (row[i] != vars[arg.slot]) return false;
          break;
        case ArgStep::Op::kInstance:
          if (row[i] != arg.node) return false;
          break;
        case ArgStep::Op::kClass:
          if (!schema->hierarchy(i)->Subsumes(arg.node, row[i])) return false;
          break;
      }
    }
    return true;
  }
};

/// A rule compiled for one evaluation. Positive atoms keep body order, so
/// the join enumerates bindings, and derives facts, in the order of a
/// nested scan over every body row.
struct CompiledRule {
  const Rule* rule = nullptr;
  size_t stratum = 0;
  HierarchicalRelation* head_relation = nullptr;
  /// kEqual for variables, kInstance/kClass for constants.
  std::vector<ArgStep> head;
  /// The head carries a class constant, so a derived fact is not atomic
  /// and may create a §3.1 conflict: it goes through the guard.
  bool guarded = false;
  std::vector<CompiledAtom> positive;
  /// negated[k]: negated atoms whose variables are all bound once the first
  /// k positive atoms matched; each is one probe at that depth.
  std::vector<std::vector<CompiledAtom>> negated;
  /// Indexes into `positive` of atoms over same-stratum IDB relations.
  std::vector<size_t> recursive;
  size_t slots = 0;
};

/// Compiles `rule`: dense variable slots, each atom's known positions,
/// negated atoms placed at the first depth that binds all their variables.
Result<CompiledRule> CompileRule(
    const Rule& rule, Database& db,
    std::unordered_map<std::string, RelationFacts>& facts) {
  CompiledRule out;
  out.rule = &rule;
  HIREL_ASSIGN_OR_RETURN(out.head_relation, db.GetRelation(rule.head.relation));
  std::unordered_map<std::string, size_t> slot_of;
  // Depth (number of positive atoms matched) at which each slot is bound.
  std::vector<size_t> bound_at;
  for (const RuleAtom& atom : rule.body) {
    if (atom.negated) continue;
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           std::as_const(db).GetRelation(atom.relation));
    CompiledAtom compiled;
    compiled.relation = &atom.relation;
    compiled.facts = &facts.at(atom.relation);
    compiled.schema = &relation->schema();
    const size_t depth = out.positive.size();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const RuleArg& arg = atom.args[i];
      ArgStep step;
      if (arg.kind == RuleArg::Kind::kNode) {
        step.node = arg.node;
        step.op = compiled.schema->hierarchy(i)->is_class(arg.node)
                      ? ArgStep::Op::kClass
                      : ArgStep::Op::kInstance;
        if (step.op == ArgStep::Op::kInstance) {
          compiled.key_positions.push_back(i);
        }
      } else {
        auto [it, fresh] = slot_of.emplace(arg.variable, slot_of.size());
        step.slot = it->second;
        if (fresh) {
          bound_at.push_back(depth + 1);
          step.op = ArgStep::Op::kBind;
        } else {
          step.op = ArgStep::Op::kEqual;
          if (bound_at[step.slot] <= depth) compiled.key_positions.push_back(i);
        }
      }
      compiled.args.push_back(step);
    }
    compiled.key.resize(compiled.key_positions.size());
    out.positive.push_back(std::move(compiled));
  }
  out.slots = slot_of.size();
  out.negated.resize(out.positive.size() + 1);
  for (const RuleAtom& atom : rule.body) {
    if (!atom.negated) continue;
    CompiledAtom compiled;
    compiled.relation = &atom.relation;
    compiled.facts = &facts.at(atom.relation);
    size_t depth = 0;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const RuleArg& arg = atom.args[i];
      ArgStep step{ArgStep::Op::kInstance, 0, arg.node};
      if (arg.kind == RuleArg::Kind::kVariable) {
        // AddRule's safety check: the variable occurs positively.
        step = ArgStep{ArgStep::Op::kEqual, slot_of.at(arg.variable),
                       kInvalidNode};
        depth = std::max(depth, bound_at[step.slot]);
      }
      compiled.args.push_back(step);
      compiled.key_positions.push_back(i);
    }
    compiled.key.resize(compiled.key_positions.size());
    out.negated[depth].push_back(std::move(compiled));
  }
  const Schema& head_schema = out.head_relation->schema();
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    const RuleArg& arg = rule.head.args[i];
    if (arg.kind == RuleArg::Kind::kVariable) {
      out.head.push_back(
          ArgStep{ArgStep::Op::kEqual, slot_of.at(arg.variable), kInvalidNode});
    } else if (head_schema.hierarchy(i)->is_class(arg.node)) {
      out.head.push_back(ArgStep{ArgStep::Op::kClass, 0, arg.node});
      out.guarded = true;
    } else {
      out.head.push_back(ArgStep{ArgStep::Op::kInstance, 0, arg.node});
    }
  }
  return out;
}

}  // namespace

std::string Rule::ToString(const Database& db) const {
  auto atom_to_string = [&](const RuleAtom& atom) {
    std::string out = atom.negated ? "not " : "";
    out += atom.relation;
    out += "(";
    Result<const HierarchicalRelation*> relation =
        db.GetRelation(atom.relation);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out += ", ";
      const RuleArg& arg = atom.args[i];
      if (arg.kind == RuleArg::Kind::kVariable) {
        out += "?" + arg.variable;
      } else if (relation.ok() && i < (*relation)->schema().size()) {
        const Hierarchy* h = (*relation)->schema().hierarchy(i);
        if (h->is_class(arg.node)) out += "ALL ";
        out += h->NodeName(arg.node);
      } else {
        out += StrCat("#", arg.node);
      }
    }
    out += ")";
    return out;
  };
  std::string out = atom_to_string(head);
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += atom_to_string(body[i]);
    }
  }
  out += ".";
  return out;
}

Result<Rule> RuleEngine::ParseRule(std::string_view text) const {
  RuleCursor cursor(text);

  auto parse_atom = [&](bool allow_not) -> Result<RuleAtom> {
    RuleAtom atom;
    if (allow_not && (cursor.Accept("not ") || cursor.Accept("NOT ") ||
                      cursor.Accept('!'))) {
      atom.negated = true;
    }
    HIREL_ASSIGN_OR_RETURN(atom.relation, cursor.Identifier());
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           db_->GetRelation(atom.relation));
    const Schema& schema = relation->schema();
    if (!cursor.Accept('(')) {
      return Status::ParseError(
          StrCat("rule: expected '(' after '", atom.relation, "'"));
    }
    while (true) {
      size_t position = atom.args.size();
      if (position >= schema.size()) {
        return Status::ParseError(
            StrCat("rule: too many arguments for '", atom.relation, "'"));
      }
      Hierarchy* hierarchy = schema.hierarchy(position);
      char c = cursor.Peek();
      if (c == '?') {
        cursor.Advance();
        HIREL_ASSIGN_OR_RETURN(std::string name, cursor.Identifier());
        atom.args.push_back(RuleArg::Var(std::move(name)));
      } else if (c == '\'') {
        cursor.Advance();
        std::string literal;
        while (cursor.Peek() != '\'' && cursor.Peek() != '\0') {
          literal.push_back(cursor.Peek());
          cursor.Advance();
        }
        if (!cursor.Accept('\'')) {
          return Status::ParseError("rule: unterminated string literal");
        }
        HIREL_ASSIGN_OR_RETURN(
            NodeId node, hierarchy->FindInstance(Value::String(literal)));
        atom.args.push_back(RuleArg::Node(node));
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
        std::string number;
        number.push_back(c);
        cursor.Advance();
        bool is_float = false;
        while (std::isdigit(static_cast<unsigned char>(cursor.Peek())) ||
               cursor.Peek() == '.') {
          if (cursor.Peek() == '.') is_float = true;
          number.push_back(cursor.Peek());
          cursor.Advance();
        }
        Value value = is_float
                          ? Value::Double(std::strtod(number.c_str(), nullptr))
                          : Value::Int(std::strtoll(number.c_str(), nullptr,
                                                    10));
        HIREL_ASSIGN_OR_RETURN(NodeId node, hierarchy->FindInstance(value));
        atom.args.push_back(RuleArg::Node(node));
      } else {
        HIREL_ASSIGN_OR_RETURN(std::string name, cursor.Identifier());
        NodeId node = kInvalidNode;
        if (name == "ALL") {
          HIREL_ASSIGN_OR_RETURN(std::string class_name, cursor.Identifier());
          HIREL_ASSIGN_OR_RETURN(node, hierarchy->FindClass(class_name));
        } else {
          HIREL_ASSIGN_OR_RETURN(node, hierarchy->FindByName(name));
        }
        atom.args.push_back(RuleArg::Node(node));
      }
      if (cursor.Accept(',')) continue;
      if (cursor.Accept(')')) break;
      return Status::ParseError(
          StrCat("rule: expected ',' or ')' in '", atom.relation, "'"));
    }
    if (atom.args.size() != schema.size()) {
      return Status::ParseError(
          StrCat("rule: '", atom.relation, "' expects ", schema.size(),
                 " arguments, got ", atom.args.size()));
    }
    return atom;
  };

  Rule rule;
  HIREL_ASSIGN_OR_RETURN(rule.head, parse_atom(/*allow_not=*/false));
  if (cursor.Accept(":-")) {
    while (true) {
      HIREL_ASSIGN_OR_RETURN(RuleAtom atom, parse_atom(/*allow_not=*/true));
      rule.body.push_back(std::move(atom));
      if (!cursor.Accept(',')) break;
    }
  }
  (void)cursor.Accept('.');
  if (!cursor.AtEnd()) {
    return Status::ParseError(
        StrCat("rule: trailing characters at offset ", cursor.position()));
  }
  return rule;
}

Status RuleEngine::AddRule(Rule rule) {
  // Head relation must exist with the right arity; body atoms were checked
  // against their relations at parse time for parsed rules, so re-check for
  // programmatically built ones.
  HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* head_relation,
                         db_->GetRelation(rule.head.relation));
  if (rule.head.args.size() != head_relation->schema().size()) {
    return Status::InvalidArgument(
        StrCat("rule head '", rule.head.relation, "' arity mismatch"));
  }
  if (rule.head.negated) {
    return Status::InvalidArgument("rule head must not be negated");
  }

  std::unordered_set<std::string> positive_vars;
  for (const RuleAtom& atom : rule.body) {
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           db_->GetRelation(atom.relation));
    if (atom.args.size() != relation->schema().size()) {
      return Status::InvalidArgument(
          StrCat("rule body atom '", atom.relation, "' arity mismatch"));
    }
    if (!atom.negated) {
      for (const RuleArg& arg : atom.args) {
        if (arg.kind == RuleArg::Kind::kVariable) {
          positive_vars.insert(arg.variable);
        }
      }
    }
  }
  for (const RuleAtom& atom : rule.body) {
    if (!atom.negated) continue;
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           db_->GetRelation(atom.relation));
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const RuleArg& arg = atom.args[i];
      if (arg.kind == RuleArg::Kind::kVariable) {
        if (!positive_vars.contains(arg.variable)) {
          return Status::InvalidArgument(
              StrCat("unsafe rule: variable ?", arg.variable,
                     " of a negated atom never occurs positively"));
        }
      } else if (relation->schema().hierarchy(i)->is_class(arg.node)) {
        return Status::InvalidArgument(
            "negated atoms cannot take class constants");
      }
    }
  }
  for (const RuleArg& arg : rule.head.args) {
    if (arg.kind == RuleArg::Kind::kVariable &&
        !positive_vars.contains(arg.variable)) {
      return Status::InvalidArgument(
          StrCat("unsafe rule: head variable ?", arg.variable,
                 " never occurs in a positive body atom"));
    }
  }
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status RuleEngine::AddRule(std::string_view text) {
  HIREL_ASSIGN_OR_RETURN(Rule rule, ParseRule(text));
  return AddRule(std::move(rule));
}

Result<size_t> RuleEngine::Evaluate(const RuleOptions& options) {
  // --- Stratification -------------------------------------------------------
  std::unordered_set<std::string> idb;
  for (const Rule& rule : rules_) idb.insert(rule.head.relation);

  std::unordered_map<std::string, size_t> stratum;
  for (const std::string& name : idb) stratum[name] = 0;
  size_t limit = idb.size() + 1;
  bool changed = true;
  for (size_t round = 0; changed && round <= limit * limit; ++round) {
    changed = false;
    for (const Rule& rule : rules_) {
      size_t& head_stratum = stratum[rule.head.relation];
      for (const RuleAtom& atom : rule.body) {
        if (!idb.contains(atom.relation)) continue;
        size_t required =
            stratum[atom.relation] + (atom.negated ? 1 : 0);
        if (head_stratum < required) {
          head_stratum = required;
          changed = true;
        }
      }
    }
    for (const auto& [name, s] : stratum) {
      if (s > limit) {
        return Status::InvalidArgument(
            StrCat("program is not stratifiable: negation cycle through '",
                   name, "'"));
      }
    }
  }
  size_t max_stratum = 0;
  for (const auto& [name, s] : stratum) {
    max_stratum = std::max(max_stratum, s);
  }

  // --- Bottom-up fixpoint per stratum ---------------------------------------
  ExplicateOptions explicate_options;
  explicate_options.inference = options.inference;

  std::unordered_map<std::string, RelationFacts> facts;
  // Semi-naive evaluation: per IDB relation, the extension rows that are
  // new since the previous round. Recursive rules re-join only against
  // these deltas instead of the whole extension.
  std::unordered_map<std::string, std::vector<Item>> delta;
  auto extension_of =
      [&](const std::string& name, const HierarchicalRelation& relation,
          bool* atomic_positive) -> Result<std::vector<Item>> {
    // Fast path: a relation holding only positive atomic tuples (the shape
    // derived relations converge to) IS its own extension; skip the
    // subsumption-graph construction Explicate would perform.
    bool all_atomic_positive = true;
    std::vector<Item> rows;
    rows.reserve(relation.size());
    for (TupleId id : relation.TupleIds()) {
      TupleView t = relation.tuple(id);
      if (t.truth != Truth::kPositive ||
          !ItemIsAtomic(relation.schema(), t.item)) {
        all_atomic_positive = false;
        break;
      }
      rows.push_back(t.item.ToItem());
    }
    *atomic_positive = all_atomic_positive;
    if (all_atomic_positive) return rows;
    if (options.subsumption_cache != nullptr) {
      // Slow path, cached: run the extension plan through the plan
      // executor, which reuses the relation's subsumption graph across
      // fixpoint rounds that left it untouched.
      plan::PlanPtr p =
          plan::MakeExplicate(plan::MakeScan(name), {},
                              /*consolidate_after=*/true);
      HIREL_RETURN_IF_ERROR(plan::AnnotatePlan(*p, *db_));
      plan::ExecOptions exec;
      exec.inference = options.inference;
      exec.cache = options.subsumption_cache;
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             plan::ExecutePlan(*p, *db_, exec));
      std::vector<Item> items;
      items.reserve(out.relation->size());
      for (TupleId id : out.relation->TupleIds()) {
        items.push_back(out.relation->ItemAt(id).ToItem());
      }
      std::sort(items.begin(), items.end());
      return items;
    }
    return Extension(relation, explicate_options);
  };
  auto refresh = [&](const std::string& name,
                     bool track_delta) -> Status {
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           db_->GetRelation(name));
    RelationFacts& slot = facts[name];
    // Unchanged relation, unchanged extension (hierarchies cannot mutate
    // mid-evaluation): the delta stays empty, exactly as a rescan would
    // leave it — no live row can be fresh when the index already holds
    // every row.
    if (options.incremental && slot.version != 0 &&
        slot.version == relation->version()) {
      return Status::OK();
    }
    slot.partial.clear();
    // Semi-naive append: when the slot was all-atomic-positive and the
    // journal shows only positive inserts since (rule rounds only ever
    // insert), the new rows are the journalled tuples in id order —
    // identical to the suffix a full rescan would produce.
    if (options.incremental && slot.version != 0 && slot.atomic_positive) {
      std::optional<std::vector<MutationJournal::Record>> records =
          relation->journal().Since(slot.version);
      bool appendable = records.has_value();
      std::vector<Item> appended;
      if (appendable) {
        appended.reserve(records->size());
        for (const MutationJournal::Record& r : *records) {
          if (r.kind != MutationJournal::Record::Kind::kInsert ||
              r.truth != Truth::kPositive) {
            appendable = false;
            break;
          }
          ItemView item = relation->ItemAt(r.id);
          if (!ItemIsAtomic(relation->schema(), item)) {
            appendable = false;
            break;
          }
          appended.push_back(item.ToItem());
        }
      }
      if (appendable) {
        for (Item& row : appended) {
          if (track_delta && !slot.index.contains(row)) {
            delta[name].push_back(row);
          }
          slot.index.insert(row);
          slot.rows.push_back(std::move(row));
        }
        slot.version = relation->version();
        return Status::OK();
      }
    }
    bool atomic_positive = false;
    HIREL_ASSIGN_OR_RETURN(std::vector<Item> rows,
                           extension_of(name, *relation, &atomic_positive));
    if (track_delta) {
      std::vector<Item>& fresh = delta[name];
      for (const Item& row : rows) {
        if (!slot.index.contains(row)) fresh.push_back(row);
      }
    }
    slot.rows = std::move(rows);
    slot.index = ExtensionSet(slot.rows.begin(), slot.rows.end());
    slot.version = relation->version();
    slot.atomic_positive = atomic_positive;
    return Status::OK();
  };

  // Every relation a body atom reads gets an initial extension. A head
  // relation no body reads is only ever written, so it needs no snapshot.
  std::unordered_set<std::string> read;
  for (const Rule& rule : rules_) {
    for (const RuleAtom& atom : rule.body) read.insert(atom.relation);
  }
  for (const std::string& name : read) {
    HIREL_RETURN_IF_ERROR(refresh(name, /*track_delta=*/false));
  }

  std::vector<CompiledRule> program;
  program.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    HIREL_ASSIGN_OR_RETURN(CompiledRule compiled,
                           CompileRule(rule, *db_, facts));
    compiled.stratum = stratum[rule.head.relation];
    // Positive atoms over same-stratum IDB relations: after round 0, at
    // least one of them must consume delta rows or the rule cannot derive
    // anything new (the semi-naive argument).
    for (size_t k = 0; k < compiled.positive.size(); ++k) {
      const std::string& name = *compiled.positive[k].relation;
      if (idb.contains(name) && stratum[name] == compiled.stratum) {
        compiled.recursive.push_back(k);
      }
    }
    program.push_back(std::move(compiled));
  }

  size_t total_derived = 0;
  for (size_t s = 0; s <= max_stratum; ++s) {
    for (size_t round = 0;; ++round) {
      if (round >= options.max_rounds) {
        return Status::ResourceExhausted(
            StrCat("rule evaluation exceeded ", options.max_rounds,
                   " rounds in stratum ", s));
      }
      obs::Trace::Scope round_span(options.trace,
                                   StrCat("derive round ", round));
      size_t derived_this_round = 0;
      size_t scanned = 0;
      size_t probes = 0;
      std::unordered_set<std::string> pending_heads;
      for (CompiledRule& rule : program) {
        if (rule.stratum != s) continue;
        if (round > 0 && rule.recursive.empty()) continue;

        HierarchicalRelation* head_relation = rule.head_relation;
        std::vector<NodeId> vars(rule.slots);
        // SIZE_MAX: every atom reads the full extension (round 0).
        size_t delta_position = SIZE_MAX;
        const std::vector<Item>* delta_rows = nullptr;
        // No negated atom at `depth` holds for the current binding.
        auto negations_pass = [&](size_t depth) {
          for (CompiledAtom& atom : rule.negated[depth]) {
            atom.FillKey(vars);
            ++probes;
            if (atom.facts->index.contains(atom.key)) return false;
          }
          return true;
        };
        // Recursive join over the positive atoms, in body order.
        auto match = [&](auto&& self, size_t depth) -> Result<size_t> {
          if (depth == rule.positive.size()) {
            Item item(rule.head.size());
            for (size_t i = 0; i < rule.head.size(); ++i) {
              const ArgStep& arg = rule.head[i];
              item[i] = arg.op == ArgStep::Op::kEqual ? vars[arg.slot]
                                                      : arg.node;
            }
            if (head_relation->FindItem(item).has_value()) return 0;
            if (total_derived >= options.max_derived_facts) {
              return Status::ResourceExhausted(
                  StrCat("rule evaluation exceeded ",
                         options.max_derived_facts, " derived facts"));
            }
            // An atomic fact cannot create a conflict; a class-level one
            // is checked like an ASSERT, and facts derived before a
            // refused one stay.
            HIREL_RETURN_IF_ERROR(
                (rule.guarded
                     ? GuardedInsert(*head_relation, std::move(item),
                                     Truth::kPositive, options.inference)
                     : head_relation->Insert(std::move(item),
                                             Truth::kPositive))
                    .status());
            ++total_derived;
            return 1;
          }
          CompiledAtom& atom = rule.positive[depth];
          size_t derived = 0;
          auto visit = [&](const Item& row) -> Result<size_t> {
            ++scanned;
            if (!atom.Accept(row, vars) || !negations_pass(depth + 1)) {
              return 0;
            }
            return self(self, depth + 1);
          };
          if (depth != delta_position &&
              atom.key_positions.size() == atom.args.size()) {
            // Every position known: at most one row matches, and the atom
            // binds nothing, so no negated atom waits on this depth.
            atom.FillKey(vars);
            ++probes;
            if (!atom.facts->index.contains(atom.key)) return 0;
            return self(self, depth + 1);
          }
          if (depth != delta_position && !atom.key_positions.empty()) {
            const RowIndex& index =
                atom.facts->PartialIndex(atom.key_positions);
            atom.FillKey(vars);
            ++probes;
            auto it = index.find(atom.key);
            if (it == index.end()) return 0;
            const std::vector<Item>& rows = atom.facts->rows;
            for (size_t n : it->second) {
              HIREL_ASSIGN_OR_RETURN(size_t below, visit(rows[n]));
              derived += below;
            }
            return derived;
          }
          for (const Item& row :
               depth == delta_position ? *delta_rows : atom.facts->rows) {
            HIREL_ASSIGN_OR_RETURN(size_t below, visit(row));
            derived += below;
          }
          return derived;
        };
        size_t derived = 0;
        if (!negations_pass(0)) {
          // A ground negated atom fails: the body never holds.
        } else if (round == 0) {
          HIREL_ASSIGN_OR_RETURN(derived, match(match, 0));
        } else {
          // One pass per recursive position, that position reading delta.
          for (size_t position : rule.recursive) {
            delta_position = position;
            delta_rows = &delta[*rule.positive[position].relation];
            HIREL_ASSIGN_OR_RETURN(size_t part, match(match, 0));
            derived += part;
          }
        }
        derived_this_round += derived;
        if (read.contains(rule.rule->head.relation)) {
          pending_heads.insert(rule.rule->head.relation);
        }
      }
      // Swap deltas: what this round derived becomes next round's delta.
      delta.clear();
      for (const std::string& name : pending_heads) {
        HIREL_RETURN_IF_ERROR(refresh(name, /*track_delta=*/true));
      }
      round_span.Note("stratum", s);
      round_span.Note("derived", derived_this_round);
      round_span.Note("scanned", scanned);
      round_span.Note("probes", probes);
      if (options.stats != nullptr) {
        options.stats->rows_scanned += scanned;
        options.stats->probes += probes;
      }
      if (derived_this_round == 0) break;
    }
    delta.clear();
  }
  return total_derived;
}

}  // namespace hirel
