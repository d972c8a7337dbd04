// Tuple binding: which asserted tuples determine an item's truth value.
//
// "The nodes of the tuple-binding graph represent all tuples in the relation
// that are relevant to the determination of the truth value of the item in
// question. If there is a tuple associated with the item itself, then the
// tuple binds strongest ... Otherwise the strongest binding tuple(s) is the
// immediate predecessor(s) of the item." (Section 2.1.)
//
// The three preemption semantics of the Appendix differ only in which
// applicable tuples count as immediate predecessors; everything downstream
// (inference, conflicts, consolidation, the relational operators) is
// parameterised on this choice via InferenceOptions.

#ifndef HIREL_CORE_BINDING_H_
#define HIREL_CORE_BINDING_H_

#include <vector>

#include "common/result.h"
#include "core/hierarchical_relation.h"
#include "types/item.h"

namespace hirel {

/// Options threaded through inference and every operation built on it.
struct InferenceOptions {
  PreemptionMode preemption = PreemptionMode::kOffPath;

  /// Safety cap on the product-interval search used by on-path preemption.
  size_t on_path_search_limit = 100000;

  /// Always 1: every kernel is one serial pass. A constant, not a knob;
  /// kept only for hqlbench/probes.cc, which passes it to
  /// SubsumptionCache::Get, and goes when ROADMAP item 1 switches that
  /// probe to Get(relation).
  static constexpr size_t threads = 1;

  /// When non-null, incremented once per strongest-binding computation (the
  /// unit of subsumption work). The plan executor points this at per-node
  /// counters so EXPLAIN ANALYZE can report probe counts.
  ///
  /// Threading contract: the counter is bumped with a plain (non-atomic)
  /// increment, so a given InferenceOptions value, and the counter it
  /// points at, must only be used from one thread at a time. Every kernel
  /// probes on its calling thread, so one query's totals are exact.
  uint64_t* probe_counter = nullptr;
};

/// The strongest-binding tuples of one item.
struct Binding {
  /// True iff a tuple is asserted exactly on the item; then `binders` holds
  /// just that tuple.
  bool self_bound = false;

  /// Ids of the strongest-binding tuples (the item's immediate predecessors
  /// in its tuple-binding graph). Empty when no asserted tuple applies.
  std::vector<TupleId> binders;
};

/// Computes the strongest-binding tuples for `item` under `options`.
///
/// Off-path: the minimal applicable tuples under the binding order (item
/// subsumption extended with preference edges).
/// On-path: applicable tuples that reach the item via some hierarchy path
/// avoiding every other applicable tuple's item (kResourceExhausted if the
/// interval search exceeds options.on_path_search_limit).
/// None: all applicable tuples.
Result<Binding> ComputeBinding(const HierarchicalRelation& relation,
                               ItemView item,
                               const InferenceOptions& options = {});

/// Like ComputeBinding but the tuples in `exclude` are treated as absent.
/// Used by consolidation, which must recompute predecessors as it deletes.
Result<Binding> ComputeBindingExcluding(const HierarchicalRelation& relation,
                                        ItemView item,
                                        const std::vector<bool>& exclude,
                                        const InferenceOptions& options = {});

/// Like the above, with one extra excluded tuple on top of the mask.
/// Lets parallel consolidation exclude the tuple under test without
/// mutating the shared mask (kInvalidTuple excludes nothing extra).
Result<Binding> ComputeBindingExcluding(const HierarchicalRelation& relation,
                                        ItemView item,
                                        const std::vector<bool>& exclude,
                                        TupleId also_exclude,
                                        const InferenceOptions& options = {});

/// An explicit tuple-binding graph, for display and debugging (Fig. 1d).
/// Nodes are the applicable tuples plus the item itself; edges are the
/// immediate-subsumption (Hasse) edges among them.
struct TupleBindingGraph {
  Item item;
  /// Applicable tuples (every tuple whose item subsumes `item`).
  std::vector<TupleId> nodes;
  /// edges[i] lists indexes into `nodes` of the immediate successors of
  /// nodes[i]; an edge to kItemNode points at the queried item.
  static constexpr size_t kItemNode = static_cast<size_t>(-1);
  std::vector<std::vector<size_t>> edges;
  /// Indexes into `nodes` of the item's immediate predecessors.
  std::vector<size_t> immediate_predecessors;
};

/// Builds the item's tuple-binding graph under off-path semantics.
TupleBindingGraph BuildTupleBindingGraph(const HierarchicalRelation& relation,
                                         ItemView item);

/// Multi-line, Fig. 1d-style rendering of a tuple-binding graph.
std::string TupleBindingGraphToString(const HierarchicalRelation& relation,
                                      const TupleBindingGraph& graph);

}  // namespace hirel

#endif  // HIREL_CORE_BINDING_H_
