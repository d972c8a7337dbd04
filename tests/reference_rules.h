// Test-local reference rule evaluator: the nested-loop join RuleEngine used
// before it compiled rules. Variables live in a string-keyed map, every
// positive body atom scans all rows of its extension snapshot (or of the
// delta, for the semi-naive position), and every relation a rule mentions,
// head included, gets a snapshot. The one change from that evaluator is the
// §3.1 guard on class-level head facts, which the compiled evaluator
// shares. Each refresh is naive: it rescans the relation's whole extension
// through Extension, with no subsumption cache and no mutation journal.
// The compiled joins must derive the same facts in the same order, with
// the same per-round notes and the same errors.
//
// A negated atom is checked where it stands in the body, so it must come
// after the atoms that bind its variables (the old evaluator stopped on an
// unbound variable).

#ifndef HIREL_TESTS_REFERENCE_RULES_H_
#define HIREL_TESTS_REFERENCE_RULES_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/str_util.h"
#include "core/explicate.h"
#include "core/integrity.h"
#include "rules/rule.h"

namespace hirel {
namespace testing {

inline Result<size_t> ReferenceEvaluate(Database& db,
                                        const std::vector<Rule>& rules,
                                        const RuleOptions& options = {}) {
  using VarBinding = std::unordered_map<std::string, NodeId>;
  using ExtensionSet = std::unordered_set<Item, ItemHash>;
  struct RelationFacts {
    std::vector<Item> rows;
    ExtensionSet index;
  };

  std::unordered_set<std::string> idb;
  for (const Rule& rule : rules) idb.insert(rule.head.relation);
  std::unordered_map<std::string, size_t> stratum;
  for (const std::string& name : idb) stratum[name] = 0;
  size_t limit = idb.size() + 1;
  bool changed = true;
  for (size_t round = 0; changed && round <= limit * limit; ++round) {
    changed = false;
    for (const Rule& rule : rules) {
      size_t& head_stratum = stratum[rule.head.relation];
      for (const RuleAtom& atom : rule.body) {
        if (!idb.contains(atom.relation)) continue;
        size_t required = stratum[atom.relation] + (atom.negated ? 1 : 0);
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
  for (const auto& [name, s] : stratum) max_stratum = std::max(max_stratum, s);

  ExplicateOptions explicate_options;
  explicate_options.inference = options.inference;
  std::unordered_map<std::string, RelationFacts> facts;
  std::unordered_map<std::string, std::vector<Item>> delta;
  // A relation holding only positive atomic tuples is its own extension,
  // in tuple-id order, as the compiled evaluator reads it.
  auto extension_of =
      [&](const HierarchicalRelation& relation) -> Result<std::vector<Item>> {
    std::vector<Item> rows;
    for (TupleId id : relation.TupleIds()) {
      TupleView t = relation.tuple(id);
      if (t.truth != Truth::kPositive ||
          !ItemIsAtomic(relation.schema(), t.item)) {
        return Extension(relation, explicate_options);
      }
      rows.push_back(t.item.ToItem());
    }
    return rows;
  };
  auto refresh = [&](const std::string& name, bool track_delta) -> Status {
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           std::as_const(db).GetRelation(name));
    RelationFacts& slot = facts[name];
    HIREL_ASSIGN_OR_RETURN(std::vector<Item> rows, extension_of(*relation));
    if (track_delta) {
      std::vector<Item>& fresh = delta[name];
      for (const Item& row : rows) {
        if (!slot.index.contains(row)) fresh.push_back(row);
      }
    }
    slot.rows = std::move(rows);
    slot.index = ExtensionSet(slot.rows.begin(), slot.rows.end());
    return Status::OK();
  };

  std::unordered_set<std::string> referenced;
  for (const Rule& rule : rules) {
    referenced.insert(rule.head.relation);
    for (const RuleAtom& atom : rule.body) referenced.insert(atom.relation);
  }
  for (const std::string& name : referenced) {
    HIREL_RETURN_IF_ERROR(refresh(name, /*track_delta=*/false));
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
      std::unordered_set<std::string> pending_heads;
      for (const Rule& rule : rules) {
        if (stratum[rule.head.relation] != s) continue;
        std::vector<size_t> recursive_positions;
        for (size_t b = 0; b < rule.body.size(); ++b) {
          const RuleAtom& atom = rule.body[b];
          if (!atom.negated && idb.contains(atom.relation) &&
              stratum[atom.relation] == s) {
            recursive_positions.push_back(b);
          }
        }
        if (round > 0 && recursive_positions.empty()) continue;

        HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * head_relation,
                               db.GetRelation(rule.head.relation));
        const Schema& head_schema = head_relation->schema();
        size_t delta_position = SIZE_MAX;
        VarBinding binding;
        auto match = [&](auto&& self, size_t index) -> Result<size_t> {
          if (index == rule.body.size()) {
            Item item(head_schema.size());
            for (size_t i = 0; i < rule.head.args.size(); ++i) {
              const RuleArg& arg = rule.head.args[i];
              item[i] = arg.kind == RuleArg::Kind::kNode
                            ? arg.node
                            : binding.at(arg.variable);
            }
            if (head_relation->FindItem(item).has_value()) return 0;
            if (total_derived >= options.max_derived_facts) {
              return Status::ResourceExhausted(
                  StrCat("rule evaluation exceeded ",
                         options.max_derived_facts, " derived facts"));
            }
            HIREL_RETURN_IF_ERROR(
                (ItemIsAtomic(head_schema, item)
                     ? head_relation->Insert(std::move(item),
                                             Truth::kPositive)
                     : GuardedInsert(*head_relation, std::move(item),
                                     Truth::kPositive, options.inference))
                    .status());
            ++total_derived;
            return 1;
          }
          const RuleAtom& atom = rule.body[index];
          HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                                 std::as_const(db).GetRelation(atom.relation));
          const Schema& schema = relation->schema();
          const RelationFacts& slot = facts.at(atom.relation);
          if (atom.negated) {
            Item probe(atom.args.size());
            for (size_t i = 0; i < atom.args.size(); ++i) {
              const RuleArg& arg = atom.args[i];
              probe[i] = arg.kind == RuleArg::Kind::kNode
                             ? arg.node
                             : binding.at(arg.variable);
            }
            if (slot.index.contains(probe)) return 0;
            return self(self, index + 1);
          }
          size_t derived = 0;
          const std::vector<Item>& rows =
              index == delta_position ? delta[atom.relation] : slot.rows;
          for (const Item& row : rows) {
            std::vector<std::string> bound_here;
            bool matches = true;
            for (size_t i = 0; i < atom.args.size() && matches; ++i) {
              const RuleArg& arg = atom.args[i];
              if (arg.kind == RuleArg::Kind::kNode) {
                const Hierarchy* h = schema.hierarchy(i);
                matches = h->is_class(arg.node)
                              ? h->Subsumes(arg.node, row[i])
                              : row[i] == arg.node;
              } else {
                auto it = binding.find(arg.variable);
                if (it != binding.end()) {
                  matches = it->second == row[i];
                } else {
                  binding.emplace(arg.variable, row[i]);
                  bound_here.push_back(arg.variable);
                }
              }
            }
            if (matches) {
              Result<size_t> below = self(self, index + 1);
              if (!below.ok()) return below;
              derived += *below;
            }
            for (const std::string& variable : bound_here) {
              binding.erase(variable);
            }
          }
          return derived;
        };
        size_t derived = 0;
        if (round == 0) {
          HIREL_ASSIGN_OR_RETURN(derived, match(match, 0));
        } else {
          for (size_t position : recursive_positions) {
            delta_position = position;
            HIREL_ASSIGN_OR_RETURN(size_t part, match(match, 0));
            derived += part;
          }
        }
        derived_this_round += derived;
        pending_heads.insert(rule.head.relation);
      }
      delta.clear();
      for (const std::string& name : pending_heads) {
        HIREL_RETURN_IF_ERROR(refresh(name, /*track_delta=*/true));
      }
      round_span.Note("stratum", s);
      round_span.Note("derived", derived_this_round);
      if (derived_this_round == 0) break;
    }
    delta.clear();
  }
  return total_derived;
}

}  // namespace testing
}  // namespace hirel

#endif  // HIREL_TESTS_REFERENCE_RULES_H_
