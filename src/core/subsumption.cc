#include "core/subsumption.h"

#include <algorithm>
#include <cstdint>

#include "common/str_util.h"

namespace hirel {

namespace {

/// Final assembly shared by full builds and patches: given the live tuple
/// ids in ascending order and their Hasse adjacency (indices into `ids`),
/// produces the canonical SubsumptionGraph. Adjacency lists are sorted
/// ascending and Kahn's sort runs FIFO with ready nodes seeded in index
/// order, so the output is a pure function of (ids, edge set) — a patched
/// graph and a from-scratch rebuild over the same edge set are
/// byte-identical.
SubsumptionGraph EmitGraph(const std::vector<TupleId>& ids,
                           std::vector<std::vector<size_t>> succ,
                           std::vector<std::vector<size_t>> pred) {
  size_t n = ids.size();
  for (auto& list : succ) std::sort(list.begin(), list.end());

  // Kahn topological sort (general first).
  std::vector<size_t> indegree(n);
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    indegree[i] = pred[i].size();
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<size_t> order;  // positions in `ids`
  order.reserve(n);
  for (size_t head = 0; head < ready.size(); ++head) {
    size_t u = ready[head];
    order.push_back(u);
    for (size_t v : succ[u]) {
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }

  // Remap into topological positions.
  std::vector<size_t> position(n);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;

  SubsumptionGraph graph;
  graph.nodes.resize(n);
  graph.successors.resize(n);
  graph.predecessors.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t old = order[i];
    graph.nodes[i] = ids[old];
    graph.successors[i] = std::move(succ[old]);
    for (size_t& s : graph.successors[i]) s = position[s];
    graph.predecessors[i] = std::move(pred[old]);
    for (size_t& p : graph.predecessors[i]) p = position[p];
    std::sort(graph.successors[i].begin(), graph.successors[i].end());
    std::sort(graph.predecessors[i].begin(), graph.predecessors[i].end());
    if (graph.predecessors[i].empty()) {
      graph.predecessors[i].push_back(SubsumptionGraph::kUniversalNode);
      graph.sources.push_back(i);
    }
  }
  return graph;
}

}  // namespace

SubsumptionGraph BuildSubsumptionGraph(const HierarchicalRelation& relation,
                                       size_t* candidates) {
  std::vector<TupleId> ids = relation.TupleIds();
  const size_t n = ids.size();
  std::vector<uint32_t> position(ids.empty() ? 0 : ids.back() + 1);
  for (size_t i = 0; i < n; ++i) position[ids[i]] = static_cast<uint32_t>(i);

  // Up(t), flattened: positions of the live tuples binding strictly above
  // t, one index scan per tuple.
  std::vector<uint32_t> up;
  std::vector<size_t> up_begin(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (TupleId id : relation.TuplesBindingAbove(relation.ItemAt(ids[i]))) {
      if (id != ids[i]) up.push_back(position[id]);
    }
    up_begin[i + 1] = up.size();
  }
  if (candidates != nullptr) *candidates = up.size();

  // c ∈ Up(t) implies Up(c) ⊊ Up(t), so ascending |Up| is a topological
  // order: every c ∈ Up(t) is placed before t.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return up_begin[a + 1] - up_begin[a] < up_begin[b + 1] - up_begin[b];
  });

  // pred(t) = Up(t) ∖ ⋃_{c ∈ Up(t)} pred(c) (exactness argued in
  // subsumption.h). No item tests are needed.
  std::vector<std::vector<size_t>> succ(n), pred(n);
  std::vector<size_t> struck(n, SIZE_MAX);  // stamp: t being placed
  for (size_t t : order) {
    for (size_t k = up_begin[t]; k < up_begin[t + 1]; ++k) {
      for (size_t a : pred[up[k]]) struck[a] = t;
    }
    for (size_t k = up_begin[t]; k < up_begin[t + 1]; ++k) {
      size_t c = up[k];
      if (struck[c] == t) continue;
      pred[t].push_back(c);
      succ[c].push_back(t);
    }
  }
  return EmitGraph(ids, std::move(succ), std::move(pred));
}

void PatchSubsumptionGraph(const HierarchicalRelation& relation,
                           const SubsumptionDelta& delta,
                           SubsumptionGraph* graph, size_t* candidates) {
  // Working state in slot space, moved out of `graph` (it is overwritten
  // at the end): slot i starts as graph position i; added tuples take
  // fresh slots at the end. The virtual universal predecessor is stripped
  // here and re-added by EmitGraph.
  std::vector<TupleId> slot_id(std::move(graph->nodes));
  std::vector<std::vector<size_t>> succ(std::move(graph->successors));
  std::vector<std::vector<size_t>> pred(std::move(graph->predecessors));
  for (auto& list : pred) {
    list.erase(std::remove(list.begin(), list.end(),
                           SubsumptionGraph::kUniversalNode),
               list.end());
  }
  // slot_of[id]: the live slot holding tuple id, or kNoSlot. Every live
  // id is a graph node or an add, so the vector covers them all.
  constexpr size_t kNoSlot = SIZE_MAX;
  size_t bound = 0;
  for (TupleId id : slot_id) bound = std::max<size_t>(bound, id + 1);
  for (TupleId id : delta.add) bound = std::max<size_t>(bound, id + 1);
  std::vector<size_t> slot_of(bound, kNoSlot);
  for (size_t i = 0; i < slot_id.size(); ++i) slot_of[slot_id[i]] = i;

  auto erase_from = [](std::vector<size_t>& list, size_t v) {
    list.erase(std::remove(list.begin(), list.end(), v), list.end());
  };

  // Phase 1: cover-deletions. Removing x from a Hasse diagram creates a
  // direct edge a -> b exactly for those former predecessors a and
  // successors b of x left with no other path a => b; the DFS test is
  // exact because the surgical graph is the true Hasse diagram of the
  // remaining order before every removal (sequential induction).
  std::vector<size_t> reached(slot_id.size(), 0);  // stamp: DFS pass
  size_t pass = 0;
  std::vector<size_t> stack;
  for (TupleId id : delta.remove) {
    if (id >= bound || slot_of[id] == kNoSlot) continue;
    size_t x = slot_of[id];
    std::vector<size_t> xpreds = std::move(pred[x]);
    std::vector<size_t> xsuccs = std::move(succ[x]);
    pred[x].clear();
    succ[x].clear();
    for (size_t a : xpreds) erase_from(succ[a], x);
    for (size_t b : xsuccs) erase_from(pred[b], x);
    slot_of[id] = kNoSlot;
    for (size_t a : xpreds) {
      ++pass;
      stack.assign(1, a);
      reached[a] = pass;
      while (!stack.empty()) {
        size_t u = stack.back();
        stack.pop_back();
        for (size_t v : succ[u]) {
          if (reached[v] != pass) {
            reached[v] = pass;
            stack.push_back(v);
          }
        }
      }
      for (size_t b : xsuccs) {
        if (reached[b] != pass) {
          succ[a].push_back(b);
          pred[b].push_back(a);
        }
      }
    }
  }

  // Phase 2: cover-insertions. The store's binding scans give x's Up and
  // Down sets directly; tuples not yet in the working graph (later adds)
  // are skipped and pick x up when they are placed themselves.
  std::vector<size_t> above(slot_id.size(), 0);  // stamp: slot is in Up(x)
  std::vector<size_t> below(slot_id.size(), 0);  // stamp: slot is in Down(x)
  size_t placed = 0;
  size_t scanned = 0;
  std::vector<size_t> up, down;
  auto collect = [&](const std::vector<TupleId>& found, TupleId self,
                     std::vector<size_t>& slots, std::vector<size_t>& mark) {
    slots.clear();
    for (TupleId other : found) {
      if (other == self || other >= bound || slot_of[other] == kNoSlot) {
        continue;
      }
      slots.push_back(slot_of[other]);
      mark[slot_of[other]] = placed;
    }
  };
  for (TupleId id : delta.add) {
    if (slot_of[id] != kNoSlot) continue;
    ++placed;
    ItemView item = relation.ItemAt(id);
    collect(relation.TuplesBindingAbove(item), id, up, above);
    collect(relation.TuplesBindingBelow(item), id, down, below);
    scanned += up.size() + down.size();
    // x's covers: a is a direct predecessor iff a is above x with no
    // direct successor of a also above x (transitivity makes the
    // first-step test exact); successors dually.
    std::vector<size_t> xpreds, xsuccs;
    for (size_t a : up) {
      bool blocked = false;
      for (size_t s : succ[a]) {
        if (above[s] == placed) {
          blocked = true;
          break;
        }
      }
      if (!blocked) xpreds.push_back(a);
    }
    for (size_t b : down) {
      bool blocked = false;
      for (size_t p : pred[b]) {
        if (below[p] == placed) {
          blocked = true;
          break;
        }
      }
      if (!blocked) xsuccs.push_back(b);
    }
    // Existing edges u -> v now spanning x (u above, v below) stop being
    // covers.
    for (size_t u : up) {
      auto& out = succ[u];
      for (size_t k = 0; k < out.size();) {
        if (below[out[k]] == placed) {
          erase_from(pred[out[k]], u);
          out[k] = out.back();
          out.pop_back();
        } else {
          ++k;
        }
      }
    }
    // Attach x.
    size_t m = slot_id.size();
    for (size_t a : xpreds) succ[a].push_back(m);
    for (size_t b : xsuccs) pred[b].push_back(m);
    slot_id.push_back(id);
    above.push_back(0);
    below.push_back(0);
    succ.push_back(std::move(xsuccs));
    pred.push_back(std::move(xpreds));
    slot_of[id] = m;
  }
  if (candidates != nullptr) *candidates = scanned;

  // Compact live slots in ascending tuple-id order (the full build's input
  // order; slot_of lists them so) and re-emit canonically.
  std::vector<size_t> alive_slots;
  alive_slots.reserve(slot_id.size());
  for (size_t slot : slot_of) {
    if (slot != kNoSlot) alive_slots.push_back(slot);
  }
  std::vector<size_t> new_index(slot_id.size(), 0);
  for (size_t k = 0; k < alive_slots.size(); ++k) {
    new_index[alive_slots[k]] = k;
  }
  std::vector<TupleId> ids(alive_slots.size());
  std::vector<std::vector<size_t>> out_succ(alive_slots.size());
  std::vector<std::vector<size_t>> out_pred(alive_slots.size());
  for (size_t k = 0; k < alive_slots.size(); ++k) {
    size_t slot = alive_slots[k];
    ids[k] = slot_id[slot];
    out_succ[k] = std::move(succ[slot]);
    for (size_t& s : out_succ[k]) s = new_index[s];
    out_pred[k] = std::move(pred[slot]);
    for (size_t& p : out_pred[k]) p = new_index[p];
  }
  *graph = EmitGraph(ids, std::move(out_succ), std::move(out_pred));
}

std::string SubsumptionGraphToString(const HierarchicalRelation& relation,
                                     const SubsumptionGraph& graph) {
  const Schema& schema = relation.schema();
  std::string out = StrCat("subsumption graph of '", relation.name(), "':\n");
  out += "  [universal negated tuple]\n";
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    TupleView t = relation.tuple(graph.nodes[i]);
    out += StrCat("  ", TruthToString(t.truth), " ",
                  ItemToString(schema, t.item), "  <- ");
    std::vector<std::string> preds;
    for (size_t p : graph.predecessors[i]) {
      if (p == SubsumptionGraph::kUniversalNode) {
        preds.push_back("[universal]");
      } else {
        TupleView pt = relation.tuple(graph.nodes[p]);
        preds.push_back(StrCat(TruthToString(pt.truth), " ",
                               ItemToString(schema, pt.item)));
      }
    }
    out += Join(preds, ", ");
    out += "\n";
  }
  return out;
}

}  // namespace hirel
