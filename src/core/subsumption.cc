#include "core/subsumption.h"

#include <algorithm>
#include <unordered_map>

#include "common/bitset.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

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
  for (auto& list : pred) std::sort(list.begin(), list.end());

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
    for (size_t s : succ[old]) graph.successors[i].push_back(position[s]);
    for (size_t p : pred[old]) graph.predecessors[i].push_back(position[p]);
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
                                       size_t threads) {
  const Schema& schema = relation.schema();
  SubsumptionGraph graph;

  std::vector<TupleId> ids = relation.TupleIds();
  size_t n = ids.size();

  // Phase A: the full strict binds-below relation as bitset rows. Exactly
  // n^2 pairwise item tests, partitioned across the pool by row — each
  // chunk writes only its own rows, and the tests read nothing mutable
  // (hierarchy snapshots are immutable), so the phase races with nothing.
  std::vector<Item> items;
  items.reserve(n);
  for (TupleId id : ids) items.push_back(relation.ItemAt(id));
  std::vector<DynamicBitset> below(n, DynamicBitset(n));
  ParallelOptions par;
  par.threads = threads;
  ParallelFor(n, par, [&](size_t /*chunk*/, size_t lo, size_t hi) -> Status {
    for (size_t a = lo; a < hi; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (a != b && ItemBindsBelow(schema, items[a], items[b])) {
          below[a].Set(b);
        }
      }
    }
    return Status::OK();
  });
  std::vector<DynamicBitset> above(n, DynamicBitset(n));
  for (size_t a = 0; a < n; ++a) {
    for (uint32_t b : below[a].ToVector()) above[b].Set(a);
  }

  // Phase B: Hasse edge a -> b iff a is strictly below-closed above b with
  // nothing strictly between, i.e. no c with a < c < b — exactly when
  // below[a] and above[b] are disjoint (c = a and c = b are excluded by
  // strictness already).
  std::vector<std::vector<size_t>> succ(n), pred(n);
  for (size_t a = 0; a < n; ++a) {
    for (uint32_t b : below[a].ToVector()) {
      if (!below[a].Intersects(above[b])) {
        succ[a].push_back(b);
        pred[b].push_back(a);
      }
    }
  }

  graph = EmitGraph(ids, std::move(succ), std::move(pred));
  return graph;
}

void PatchSubsumptionGraph(const HierarchicalRelation& relation,
                           const SubsumptionDelta& delta, size_t threads,
                           SubsumptionGraph* graph) {
  const Schema& schema = relation.schema();

  // Working copy in slot space: slot i starts as graph position i; added
  // tuples take fresh slots at the end. The virtual universal predecessor
  // is stripped here and re-added by EmitGraph.
  std::vector<TupleId> slot_id(graph->nodes);
  std::vector<char> dead(slot_id.size(), 0);
  std::vector<std::vector<size_t>> succ(graph->successors);
  std::vector<std::vector<size_t>> pred(graph->predecessors);
  for (auto& list : pred) {
    list.erase(std::remove(list.begin(), list.end(),
                           SubsumptionGraph::kUniversalNode),
               list.end());
  }
  std::unordered_map<TupleId, size_t> slot_of;
  slot_of.reserve(slot_id.size() + delta.add.size());
  for (size_t i = 0; i < slot_id.size(); ++i) slot_of.emplace(slot_id[i], i);

  auto erase_from = [](std::vector<size_t>& list, size_t v) {
    list.erase(std::remove(list.begin(), list.end(), v), list.end());
  };

  // Phase 1: cover-deletions. Removing x from a Hasse diagram creates a
  // direct edge a -> b exactly for those former predecessors a and
  // successors b of x left with no other path a => b; the DFS test is
  // exact because the surgical graph is the true Hasse diagram of the
  // remaining order before every removal (sequential induction).
  std::vector<char> reach;
  std::vector<size_t> stack;
  for (TupleId id : delta.remove) {
    auto it = slot_of.find(id);
    if (it == slot_of.end()) continue;
    size_t x = it->second;
    std::vector<size_t> xpreds = std::move(pred[x]);
    std::vector<size_t> xsuccs = std::move(succ[x]);
    pred[x].clear();
    succ[x].clear();
    for (size_t a : xpreds) erase_from(succ[a], x);
    for (size_t b : xsuccs) erase_from(pred[b], x);
    dead[x] = 1;
    slot_of.erase(it);
    for (size_t a : xpreds) {
      reach.assign(slot_id.size(), 0);
      stack.clear();
      stack.push_back(a);
      reach[a] = 1;
      while (!stack.empty()) {
        size_t u = stack.back();
        stack.pop_back();
        for (size_t v : succ[u]) {
          if (!reach[v]) {
            reach[v] = 1;
            stack.push_back(v);
          }
        }
      }
      for (size_t b : xsuccs) {
        if (!reach[b]) {
          succ[a].push_back(b);
          pred[b].push_back(a);
        }
      }
    }
  }

  // Phase 2: cover-insertions. Each needs ≤ 2n item tests (the two
  // directions are mutually exclusive for distinct items, hence the
  // else-if) instead of the full build's n^2.
  std::vector<Item> slot_item(slot_id.size());
  for (size_t i = 0; i < slot_id.size(); ++i) {
    if (!dead[i]) slot_item[i] = relation.ItemAt(slot_id[i]);
  }
  ParallelOptions par;
  par.threads = threads;
  for (TupleId id : delta.add) {
    if (slot_of.contains(id)) continue;
    const Item& item = relation.ItemAt(id);
    size_t nslots = slot_id.size();
    std::vector<char> above(nslots, 0);   // slot's item strictly above x's
    std::vector<char> below_x(nslots, 0);  // slot's item strictly below x's
    ParallelFor(nslots, par,
                [&](size_t /*chunk*/, size_t lo, size_t hi) -> Status {
                  for (size_t j = lo; j < hi; ++j) {
                    if (dead[j]) continue;
                    if (ItemBindsBelow(schema, slot_item[j], item)) {
                      above[j] = 1;
                    } else if (ItemBindsBelow(schema, item, slot_item[j])) {
                      below_x[j] = 1;
                    }
                  }
                  return Status::OK();
                });
    // x's covers: a is a direct predecessor iff a is above x with no
    // direct successor of a also above x (transitivity makes the
    // first-step test exact); successors dually.
    std::vector<size_t> xpreds, xsuccs;
    for (size_t a = 0; a < nslots; ++a) {
      if (dead[a] || !above[a]) continue;
      bool blocked = false;
      for (size_t s : succ[a]) {
        if (above[s]) {
          blocked = true;
          break;
        }
      }
      if (!blocked) xpreds.push_back(a);
    }
    for (size_t b = 0; b < nslots; ++b) {
      if (dead[b] || !below_x[b]) continue;
      bool blocked = false;
      for (size_t p : pred[b]) {
        if (below_x[p]) {
          blocked = true;
          break;
        }
      }
      if (!blocked) xsuccs.push_back(b);
    }
    // Existing edges u -> v now spanning x (u above, v below) stop being
    // covers.
    for (size_t u = 0; u < nslots; ++u) {
      if (dead[u] || !above[u]) continue;
      auto& out = succ[u];
      for (size_t k = 0; k < out.size();) {
        if (below_x[out[k]]) {
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
    slot_item.push_back(std::move(item));
    dead.push_back(0);
    succ.push_back(std::move(xsuccs));
    pred.push_back(std::move(xpreds));
    slot_of.emplace(id, m);
  }

  // Compact live slots in ascending tuple-id order (the full build's input
  // order) and re-emit canonically.
  std::vector<size_t> alive_slots;
  alive_slots.reserve(slot_id.size());
  for (size_t i = 0; i < slot_id.size(); ++i) {
    if (!dead[i]) alive_slots.push_back(i);
  }
  std::sort(alive_slots.begin(), alive_slots.end(),
            [&](size_t a, size_t b) { return slot_id[a] < slot_id[b]; });
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
    out_succ[k].reserve(succ[slot].size());
    for (size_t s : succ[slot]) out_succ[k].push_back(new_index[s]);
    out_pred[k].reserve(pred[slot].size());
    for (size_t p : pred[slot]) out_pred[k].push_back(new_index[p]);
  }
  *graph = EmitGraph(ids, std::move(out_succ), std::move(out_pred));
}

std::string SubsumptionGraphToString(const HierarchicalRelation& relation,
                                     const SubsumptionGraph& graph) {
  const Schema& schema = relation.schema();
  std::string out = StrCat("subsumption graph of '", relation.name(), "':\n");
  out += "  [universal negated tuple]\n";
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    const HTuple& t = relation.tuple(graph.nodes[i]);
    out += StrCat("  ", TruthToString(t.truth), " ",
                  ItemToString(schema, t.item), "  <- ");
    std::vector<std::string> preds;
    for (size_t p : graph.predecessors[i]) {
      if (p == SubsumptionGraph::kUniversalNode) {
        preds.push_back("[universal]");
      } else {
        const HTuple& pt = relation.tuple(graph.nodes[p]);
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
