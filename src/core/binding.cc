#include "core/binding.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/str_util.h"

namespace hirel {

namespace {

/// Tuple-exclusion view: a shared (read-only) mask plus one extra id, so
/// concurrent binding computations never mutate a common mask.
struct ExcludeSet {
  const std::vector<bool>* mask = nullptr;
  TupleId extra = kInvalidTuple;

  bool contains(TupleId id) const {
    if (id == extra) return true;
    return mask != nullptr && id < mask->size() && (*mask)[id];
  }
};

/// Applicable tuples: all live, non-excluded tuples whose item subsumes
/// `item`. The exact-match tuple (if any) is reported separately.
struct Applicable {
  std::vector<TupleId> strict;  // strictly subsuming tuples
  TupleId self = kInvalidTuple;
};

Applicable CollectApplicable(const HierarchicalRelation& relation,
                             ItemView item, const ExcludeSet& exclude) {
  Applicable out;
  for (TupleId id : relation.TuplesSubsuming(item)) {
    if (exclude.contains(id)) continue;
    if (relation.ItemAt(id) == item) {
      out.self = id;
    } else {
      out.strict.push_back(id);
    }
  }
  return out;
}

/// Off-path immediate predecessors: applicable tuples not preempted by a
/// more specifically binding applicable tuple.
std::vector<TupleId> OffPathBinders(const HierarchicalRelation& relation,
                                    const std::vector<TupleId>& applicable) {
  const Schema& schema = relation.schema();
  std::vector<ItemView> items;
  items.reserve(applicable.size());
  for (TupleId t : applicable) items.push_back(relation.ItemAt(t));
  std::vector<TupleId> binders;
  for (size_t a = 0; a < applicable.size(); ++a) {
    bool preempted = false;
    for (size_t b = 0; b < applicable.size(); ++b) {
      if (b == a) continue;
      if (ItemBindsBelow(schema, items[a], items[b])) {
        preempted = true;
        break;
      }
    }
    if (!preempted) binders.push_back(applicable[a]);
  }
  return binders;
}

/// On-path reachability: is there a path from `from` to `to` in the product
/// item hierarchy whose interior nodes carry no asserted tuple? Interior
/// nodes necessarily lie in the interval [from, to], i.e. they subsume `to`
/// and are subsumed by `from`, so the search explores only that interval.
Result<bool> HasUnblockedPath(const HierarchicalRelation& relation,
                              ItemView from, ItemView to,
                              const ExcludeSet& exclude, size_t limit) {
  const Schema& schema = relation.schema();
  std::unordered_set<Item, ItemHash> seen;
  std::deque<Item> queue;
  queue.push_back(from.ToItem());
  seen.insert(queue.back());
  while (!queue.empty()) {
    Item u = std::move(queue.front());
    queue.pop_front();
    for (size_t i = 0; i < schema.size(); ++i) {
      const Hierarchy* h = schema.hierarchy(i);
      for (NodeId c : h->Children(u[i])) {
        if (!h->Subsumes(c, to[i])) continue;  // stay inside the interval
        Item next = u;
        next[i] = c;
        if (next == to) return true;
        if (seen.contains(next)) continue;
        // Interior nodes carrying an asserted (non-excluded) tuple block
        // the path.
        std::optional<TupleId> blocker = relation.FindItem(next);
        if (blocker.has_value() && !exclude.contains(*blocker)) {
          continue;
        }
        if (seen.size() >= limit) {
          return Status::ResourceExhausted(
              StrCat("on-path preemption search exceeded ", limit,
                     " product items; consider off-path preemption"));
        }
        seen.insert(next);
        queue.push_back(next);
      }
    }
  }
  return false;
}

Result<std::vector<TupleId>> OnPathBinders(
    const HierarchicalRelation& relation, ItemView item,
    const std::vector<TupleId>& applicable, const ExcludeSet& exclude,
    size_t limit) {
  std::vector<TupleId> binders;
  for (TupleId t : applicable) {
    HIREL_ASSIGN_OR_RETURN(
        bool unblocked,
        HasUnblockedPath(relation, relation.ItemAt(t), item, exclude,
                         limit));
    if (unblocked) binders.push_back(t);
  }
  return binders;
}

}  // namespace

Result<Binding> ComputeBindingExcluding(const HierarchicalRelation& relation,
                                        ItemView item,
                                        const std::vector<bool>& exclude,
                                        TupleId also_exclude,
                                        const InferenceOptions& options) {
  if (options.probe_counter != nullptr) ++*options.probe_counter;
  ExcludeSet excluded{&exclude, also_exclude};
  Applicable applicable = CollectApplicable(relation, item, excluded);
  Binding binding;
  if (applicable.self != kInvalidTuple) {
    binding.self_bound = true;
    binding.binders = {applicable.self};
    return binding;
  }
  switch (options.preemption) {
    case PreemptionMode::kOffPath:
      binding.binders = OffPathBinders(relation, applicable.strict);
      break;
    case PreemptionMode::kOnPath: {
      HIREL_ASSIGN_OR_RETURN(
          binding.binders,
          OnPathBinders(relation, item, applicable.strict, excluded,
                        options.on_path_search_limit));
      break;
    }
    case PreemptionMode::kNone:
      binding.binders = applicable.strict;
      break;
  }
  return binding;
}

Result<Binding> ComputeBindingExcluding(const HierarchicalRelation& relation,
                                        ItemView item,
                                        const std::vector<bool>& exclude,
                                        const InferenceOptions& options) {
  return ComputeBindingExcluding(relation, item, exclude, kInvalidTuple,
                                 options);
}

Result<Binding> ComputeBinding(const HierarchicalRelation& relation,
                               ItemView item,
                               const InferenceOptions& options) {
  static const std::vector<bool> kNoExclusions;
  return ComputeBindingExcluding(relation, item, kNoExclusions, kInvalidTuple,
                                 options);
}

TupleBindingGraph BuildTupleBindingGraph(const HierarchicalRelation& relation,
                                         ItemView item) {
  const Schema& schema = relation.schema();
  TupleBindingGraph graph;
  graph.item = item.ToItem();
  graph.nodes = relation.TuplesSubsuming(item);
  graph.edges.resize(graph.nodes.size());

  auto item_of = [&](size_t i) { return relation.ItemAt(graph.nodes[i]); };

  // Hasse edges among applicable tuples: a -> b iff a strictly subsumes b
  // with no applicable tuple strictly between.
  for (size_t a = 0; a < graph.nodes.size(); ++a) {
    for (size_t b = 0; b < graph.nodes.size(); ++b) {
      if (a == b) continue;
      if (!ItemStrictlySubsumes(schema, item_of(a), item_of(b))) continue;
      bool covered = false;
      for (size_t c = 0; c < graph.nodes.size(); ++c) {
        if (c == a || c == b) continue;
        if (ItemStrictlySubsumes(schema, item_of(a), item_of(c)) &&
            ItemStrictlySubsumes(schema, item_of(c), item_of(b))) {
          covered = true;
          break;
        }
      }
      if (!covered) graph.edges[a].push_back(b);
    }
  }

  // The item's immediate predecessors: minimal applicable tuples, or the
  // exact-match tuple alone if one exists.
  for (size_t a = 0; a < graph.nodes.size(); ++a) {
    if (item_of(a) == item) {
      graph.immediate_predecessors = {a};
      graph.edges[a].push_back(TupleBindingGraph::kItemNode);
      return graph;
    }
  }
  for (size_t a = 0; a < graph.nodes.size(); ++a) {
    bool minimal = true;
    for (size_t b = 0; b < graph.nodes.size(); ++b) {
      if (a != b && ItemStrictlySubsumes(schema, item_of(a), item_of(b))) {
        minimal = false;
        break;
      }
    }
    if (minimal) {
      graph.immediate_predecessors.push_back(a);
      graph.edges[a].push_back(TupleBindingGraph::kItemNode);
    }
  }
  return graph;
}

std::string TupleBindingGraphToString(const HierarchicalRelation& relation,
                                      const TupleBindingGraph& graph) {
  const Schema& schema = relation.schema();
  std::string out = StrCat("tuple-binding graph for ",
                           ItemToString(schema, graph.item), ":\n");
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    TupleView t = relation.tuple(graph.nodes[i]);
    out += StrCat("  [", i, "] ", TruthToString(t.truth), " ",
                  ItemToString(schema, t.item), " ->");
    if (graph.edges[i].empty()) out += " (none)";
    for (size_t succ : graph.edges[i]) {
      if (succ == TupleBindingGraph::kItemNode) {
        out += " <item>";
      } else {
        out += StrCat(" [", succ, "]");
      }
    }
    out += "\n";
  }
  out += "  immediate predecessor(s):";
  if (graph.immediate_predecessors.empty()) {
    out += " (none: closed world)";
  }
  for (size_t p : graph.immediate_predecessors) {
    out += StrCat(" [", p, "]");
  }
  out += "\n";
  return out;
}

}  // namespace hirel
