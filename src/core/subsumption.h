// SubsumptionGraph: the hierarchy (item) graph restricted to asserted
// tuples (Section 2.1), capped by the universal negated tuple (Section
// 3.3.1).
//
// "For a relation, a subsumption graph is obtained by eliminating all nodes
// in the hierarchy graph for which no tuples have been asserted." Because
// node elimination preserves the transitive reduction, the result is the
// Hasse diagram of the subsumption order restricted to asserted items. The
// virtual universal negated tuple, defined over all of D*, gains an edge to
// every source node so that the redundancy rule uniformly detects negated
// tuples with no predecessors.

#ifndef HIREL_CORE_SUBSUMPTION_H_
#define HIREL_CORE_SUBSUMPTION_H_

#include <string>
#include <vector>

#include "core/hierarchical_relation.h"

namespace hirel {

/// The subsumption graph of a relation at a point in time.
struct SubsumptionGraph {
  /// Virtual node index representing the universal negated tuple.
  static constexpr size_t kUniversalNode = static_cast<size_t>(-1);

  /// Live tuples, in a topological order of the subsumption order (more
  /// general tuples first). Indexes below are positions in this vector.
  std::vector<TupleId> nodes;

  /// successors[i]: positions of the immediate successors of nodes[i].
  std::vector<std::vector<size_t>> successors;

  /// predecessors[i]: positions of the immediate predecessors of nodes[i];
  /// contains kUniversalNode when nodes[i] has no asserted predecessor.
  std::vector<std::vector<size_t>> predecessors;

  /// Positions whose only predecessor is the universal negated tuple.
  std::vector<size_t> sources;
};

/// Builds the subsumption graph of `relation`. The binding order used is
/// plain item subsumption extended with preference edges (ItemBindsBelow),
/// matching what off-path inference consults.
///
/// §2.1 obtains the graph by eliminating the unasserted nodes of the
/// hierarchy graph, so the build walks each tuple's asserted ancestors
/// instead of testing tuple pairs. Write a < b when a binds strictly
/// above b.
///  1. Up(t) = {c : c < t} comes from one TuplesBindingAbove scan of the
///     store's inverted index per tuple.
///  2. Tuples are placed in ascending |Up(t)|. That is a topological
///     order, because c ∈ Up(t) implies Up(c) ⊊ Up(t).
///  3. pred(t) = Up(t) ∖ ⋃_{c ∈ Up(t)} pred(c), with a stamp array. This
///     is exact: if a < c < t, a covers some s ≤ c, so a ∈ pred(s), and
///     s ∈ Up(t) by transitivity, so a is struck. A cover a of t is in
///     no pred(c) with c ∈ Up(t), since c would lie strictly between a
///     and t. The step runs no item tests.
/// Successors are the reversed predecessor lists. Cost is the index scans
/// plus Σ_t Σ_{c ∈ Up(t)} |pred(c)|; no n×n structure is allocated.
///
/// `candidates`, if given, receives Σ|Up(t)|.
SubsumptionGraph BuildSubsumptionGraph(const HierarchicalRelation& relation,
                                       size_t* candidates = nullptr);

/// A batch of tuple-level changes separating a cached graph from the
/// relation's present state: `remove` lists tuple ids leaving the graph,
/// `add` ids (re-)entering it. A tuple whose binding relations may have
/// shifted (e.g. its item touches a hierarchy edit's frontier) appears in
/// both and is re-placed.
struct SubsumptionDelta {
  std::vector<TupleId> remove;
  std::vector<TupleId> add;
};

/// Patches `graph` in place so it equals BuildSubsumptionGraph(relation),
/// byte-identical, touching only the changed tuples' neighbourhoods.
///
/// Precondition: (graph->nodes ∖ delta.remove) ∪ delta.add is exactly the
/// relation's live tuple-id set, and every id in `delta.add` is live.
///
/// Removals are exact Hasse cover-deletions (for each former predecessor,
/// former successors left unreachable get a direct edge). Insertions are
/// exact cover-insertions: the store's TuplesBindingAbove /
/// TuplesBindingBelow scans give the new node's Up and Down sets, a
/// first-step test over them finds its covers, and edges newly spanning
/// it are dropped. The rewritten node set is re-emitted through the same
/// deterministic assembly as a full build.
///
/// `candidates`, if given, receives Σ(|Up| + |Down|) over the insertions.
void PatchSubsumptionGraph(const HierarchicalRelation& relation,
                           const SubsumptionDelta& delta,
                           SubsumptionGraph* graph,
                           size_t* candidates = nullptr);

/// Multi-line rendering for debugging and the figure-reproduction binaries.
std::string SubsumptionGraphToString(const HierarchicalRelation& relation,
                                     const SubsumptionGraph& graph);

}  // namespace hirel

#endif  // HIREL_CORE_SUBSUMPTION_H_
