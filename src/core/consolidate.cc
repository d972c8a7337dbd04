#include "core/consolidate.h"

#include <algorithm>
#include <set>

#include "core/subsumption.h"
#include "obs/query_stats.h"

namespace hirel {

namespace {

/// Redundancy of one tuple given an exclusion mask of already-removed
/// tuples: same truth value as every immediate predecessor, with the
/// universal negated tuple standing in when there is none. The tuple
/// itself is excluded via `also_exclude` so its predecessors are computed,
/// not its own (self-binding) presence.
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

  for (TupleId id : graph.nodes) {
    HIREL_ASSIGN_OR_RETURN(bool redundant,
                           RedundantGiven(relation, id, removed, options));
    if (redundant) {
      removed[id] = true;
      to_erase.push_back(id);
    }
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
