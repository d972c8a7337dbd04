#include "core/consolidate.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/thread_pool.h"
#include "core/subsumption.h"
#include "obs/query_stats.h"

namespace hirel {

namespace {

/// Redundancy of one tuple given an exclusion mask of already-removed
/// tuples: same truth value as every immediate predecessor, with the
/// universal negated tuple standing in when there is none. The tuple
/// itself is excluded via `also_exclude` so its predecessors are computed,
/// not its own (self-binding) presence; the mask is never written, which
/// lets concurrent redundancy tests share it.
Result<bool> RedundantGiven(const HierarchicalRelation& relation, TupleId id,
                            const std::vector<bool>& exclude,
                            const InferenceOptions& options) {
  ItemView item = relation.ItemAt(id);
  const Truth truth = relation.TruthOf(id);
  Result<Binding> binding =
      ComputeBindingExcluding(relation, item, exclude, id, options);
  if (!binding.ok()) return binding.status();
  if (binding->binders.empty()) {
    // Only the universal negated tuple precedes it.
    return truth == Truth::kNegative;
  }
  for (TupleId p : binding->binders) {
    if (relation.TruthOf(p) != truth) return false;
  }
  return true;
}

/// Positions of `graph.nodes` grouped by depth (longest path from a
/// source). All positions at one depth are pairwise incomparable in the
/// binding order — any Hasse path strictly increases depth — so their
/// redundancy decisions depend only on strictly shallower tuples.
std::vector<std::vector<size_t>> DepthLevels(const SubsumptionGraph& graph) {
  size_t n = graph.nodes.size();
  std::vector<size_t> depth(n, 0);
  size_t max_depth = 0;
  for (size_t i = 0; i < n; ++i) {  // nodes are topologically ordered
    for (size_t p : graph.predecessors[i]) {
      if (p == SubsumptionGraph::kUniversalNode) continue;
      depth[i] = std::max(depth[i], depth[p] + 1);
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  std::vector<std::vector<size_t>> levels(max_depth + 1);
  for (size_t i = 0; i < n; ++i) levels[depth[i]].push_back(i);
  return levels;
}

}  // namespace

Result<bool> IsRedundant(const HierarchicalRelation& relation, TupleId id,
                         const InferenceOptions& options) {
  if (!relation.alive(id)) {
    return Status::NotFound("tuple is not alive");
  }
  static const std::vector<bool> kNoExclusions;
  return RedundantGiven(relation, id, kNoExclusions, options);
}

Result<size_t> ConsolidateInPlace(HierarchicalRelation& relation,
                                  const InferenceOptions& options,
                                  const SubsumptionGraph* cached) {
  // Examine tuples most-general-first; the subsumption graph's node list is
  // already a topological order.
  SubsumptionGraph local;
  if (cached == nullptr) local = BuildSubsumptionGraph(relation);
  const SubsumptionGraph& graph = cached != nullptr ? *cached : local;

  size_t capacity = 0;
  for (TupleId id : graph.nodes) {
    capacity = std::max<size_t>(capacity, id + 1);
  }
  std::vector<bool> removed(capacity, false);
  std::vector<TupleId> to_erase;
  obs::ScopedAllocTracking tracked(
      capacity / 8 + graph.nodes.size() * sizeof(TupleId));

  if (options.threads == 1) {
    for (TupleId id : graph.nodes) {
      HIREL_ASSIGN_OR_RETURN(bool redundant,
                             RedundantGiven(relation, id, removed, options));
      if (redundant) {
        removed[id] = true;
        to_erase.push_back(id);
      }
    }
  } else {
    // Level-parallel sweep. Within one depth level the tuples form a
    // binding-order antichain: none can be (or block) another's
    // predecessor, so testing them against the level-entry mask decides
    // exactly what the serial node-by-node sweep decides. The mask (and
    // the probe total) is updated between levels only, on this thread.
    for (const std::vector<size_t>& level : DepthLevels(graph)) {
      std::vector<char> redundant(level.size(), 0);
      std::atomic<uint64_t> probes{0};
      ParallelOptions par;
      par.threads = options.threads;
      Status status = ParallelFor(
          level.size(), par,
          [&](size_t /*chunk*/, size_t begin, size_t end) -> Status {
            uint64_t local_probes = 0;
            InferenceOptions opts = options;
            opts.probe_counter = &local_probes;
            Status chunk_status;
            for (size_t i = begin; i < end; ++i) {
              Result<bool> r =
                  RedundantGiven(relation, graph.nodes[level[i]], removed,
                                 opts);
              if (!r.ok()) {
                chunk_status = r.status();
                break;
              }
              redundant[i] = *r ? 1 : 0;
            }
            probes.fetch_add(local_probes, std::memory_order_relaxed);
            return chunk_status;
          });
      if (options.probe_counter != nullptr) {
        *options.probe_counter += probes.load(std::memory_order_relaxed);
      }
      HIREL_RETURN_IF_ERROR(status);
      for (size_t i = 0; i < level.size(); ++i) {
        if (!redundant[i]) continue;
        removed[graph.nodes[level[i]]] = true;
        to_erase.push_back(graph.nodes[level[i]]);
      }
    }
    // Match the serial sweep's erase order (topological node order).
    std::vector<size_t> position(capacity, 0);
    for (size_t i = 0; i < graph.nodes.size(); ++i) {
      position[graph.nodes[i]] = i;
    }
    std::sort(to_erase.begin(), to_erase.end(),
              [&](TupleId a, TupleId b) { return position[a] < position[b]; });
  }

  for (TupleId id : to_erase) {
    HIREL_RETURN_IF_ERROR(relation.Erase(id));
  }
  return to_erase.size();
}

Result<HierarchicalRelation> Consolidated(const HierarchicalRelation& relation,
                                          const InferenceOptions& options) {
  HierarchicalRelation copy = relation;
  HIREL_RETURN_IF_ERROR(ConsolidateInPlace(copy, options).status());
  return copy;
}

Result<size_t> ConsolidateDelta(HierarchicalRelation& relation,
                                const InferenceOptions& options,
                                const SubsumptionGraph& graph,
                                const std::vector<TupleId>& seeds) {
  size_t n = graph.nodes.size();
  size_t capacity = 0;
  for (TupleId id : graph.nodes) {
    capacity = std::max<size_t>(capacity, id + 1);
  }
  std::vector<size_t> position(capacity, n);  // n = "not in graph"
  for (size_t i = 0; i < n; ++i) position[graph.nodes[i]] = i;

  // Worklist of graph positions, smallest (most general) first: exactly
  // the order the full serial sweep visits them. Removal cascades enqueue
  // successors, whose positions are always larger, so the ordering
  // invariant — a node is examined only after every removal that could
  // change its predecessors — is preserved throughout.
  std::set<size_t> worklist;
  for (TupleId id : seeds) {
    if (id < capacity && position[id] < n) worklist.insert(position[id]);
  }

  std::vector<bool> removed(capacity, false);
  std::vector<TupleId> to_erase;
  obs::ScopedAllocTracking tracked(capacity / 8 +
                                   capacity * sizeof(size_t));

  while (!worklist.empty()) {
    size_t pos = *worklist.begin();
    worklist.erase(worklist.begin());
    TupleId id = graph.nodes[pos];
    if (removed[id]) continue;
    HIREL_ASSIGN_OR_RETURN(bool redundant,
                           RedundantGiven(relation, id, removed, options));
    if (!redundant) continue;
    removed[id] = true;
    to_erase.push_back(id);
    for (size_t s : graph.successors[pos]) worklist.insert(s);
  }

  for (TupleId id : to_erase) {
    HIREL_RETURN_IF_ERROR(relation.Erase(id));
  }
  return to_erase.size();
}

}  // namespace hirel
