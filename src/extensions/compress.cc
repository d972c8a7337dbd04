#include "extensions/compress.h"

#include <unordered_set>

#include "common/str_util.h"
#include "core/explicate.h"

namespace hirel {

namespace {

/// Effective truth of a subtree position: the truth value members inherit
/// if no further tuple intervenes.
enum Label : size_t { kNeg = 0, kPos = 1 };

struct DpState {
  // cost[label]: minimal tuple count for the subtree given the node's
  // effective truth is `label`... computed per inherited context instead:
  // cost_given[c] = minimal tuples in the subtree when the inherited
  // default is c; choice_given[c] = the effective label chosen at this
  // node under context c.
  size_t cost_given[2] = {0, 0};
  Label choice_given[2] = {kNeg, kPos};
};

}  // namespace

Result<HierarchicalRelation> CompressExtension(
    std::string name, Hierarchy* hierarchy,
    const std::vector<NodeId>& extension) {
  // Tree check.
  for (NodeId n : hierarchy->Nodes()) {
    if (hierarchy->Parents(n).size() > 1) {
      return Status::NotSupported(
          StrCat("CompressExtension: hierarchy '", hierarchy->name(),
                 "' is a DAG (node '", hierarchy->NodeName(n),
                 "' has multiple parents); minimal encoding over a DAG is "
                 "np-hard (Section 3.2)"));
    }
  }
  std::unordered_set<NodeId> target;
  for (NodeId n : extension) {
    if (!hierarchy->alive(n) || !hierarchy->is_instance(n)) {
      return Status::InvalidArgument(
          StrCat("CompressExtension: node ", n,
                 " is not a live instance of '", hierarchy->name(), "'"));
    }
    target.insert(n);
  }

  // Bottom-up DP over the tree in reverse topological order.
  std::vector<DpState> dp(hierarchy->dag().capacity());
  std::vector<NodeId> topo = hierarchy->dag().TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    NodeId n = *it;
    DpState& state = dp[n];
    if (hierarchy->is_instance(n)) {
      Label required = target.contains(n) ? kPos : kNeg;
      for (size_t c : {kNeg, kPos}) {
        state.choice_given[c] = required;
        state.cost_given[c] = (static_cast<Label>(c) == required) ? 0 : 1;
      }
      continue;
    }
    for (size_t c : {kNeg, kPos}) {
      size_t best_cost = SIZE_MAX;
      Label best_label = static_cast<Label>(c);
      for (size_t l : {kNeg, kPos}) {
        size_t cost = (l == c) ? 0 : 1;
        for (NodeId child : hierarchy->Children(n)) {
          cost += dp[child].cost_given[l];
        }
        // Prefer "no tuple" on ties so the encoding is irredundant.
        if (cost < best_cost ||
            (cost == best_cost && l == c)) {
          best_cost = cost;
          best_label = static_cast<Label>(l);
        }
      }
      state.cost_given[c] = best_cost;
      state.choice_given[c] = best_label;
    }
  }

  // Reconstruct: walk down from the root with the inherited context,
  // emitting a tuple wherever the chosen label flips it. The closed world
  // makes the context above the root negative.
  Schema schema;
  HIREL_RETURN_IF_ERROR(schema.Append("v", hierarchy));
  HierarchicalRelation result(std::move(name), std::move(schema));

  std::vector<std::pair<NodeId, Label>> stack{{hierarchy->root(), kNeg}};
  while (!stack.empty()) {
    auto [n, context] = stack.back();
    stack.pop_back();
    Label chosen = dp[n].choice_given[context];
    if (chosen != context) {
      HIREL_RETURN_IF_ERROR(
          result
              .Insert({n},
                      chosen == kPos ? Truth::kPositive : Truth::kNegative)
              .status());
    }
    for (NodeId child : hierarchy->Children(n)) {
      stack.emplace_back(child, chosen);
    }
  }
  return result;
}

Result<size_t> CompressInPlace(HierarchicalRelation& relation) {
  if (relation.schema().size() != 1) {
    return Status::NotSupported(
        "CompressInPlace: only single-attribute relations are supported");
  }
  HIREL_ASSIGN_OR_RETURN(std::vector<Item> extension, Extension(relation));
  std::vector<NodeId> atoms;
  atoms.reserve(extension.size());
  for (const Item& item : extension) atoms.push_back(item[0]);

  HIREL_ASSIGN_OR_RETURN(
      HierarchicalRelation minimal,
      CompressExtension(relation.name(), relation.schema().hierarchy(0),
                        atoms));
  size_t before = relation.size();
  relation.Clear();
  for (TupleId id : minimal.TupleIds()) {
    TupleView t = minimal.tuple(id);
    HIREL_RETURN_IF_ERROR(relation.Insert(t.item, t.truth).status());
  }
  return before - relation.size();
}

}  // namespace hirel
