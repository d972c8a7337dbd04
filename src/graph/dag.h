// Dag: the directed-acyclic-graph substrate under every hierarchy graph.
//
// The paper's machinery is graph-theoretic at its core: hierarchy graphs are
// rooted DAGs, the type-irredundancy integrity constraint is acyclicity, the
// appendix's off-path preemption semantics correspond to maintaining the
// transitive reduction, and both the subsumption graph and the tuple-binding
// graph are derived via the "node elimination procedure" of Section 2.1.
// This class provides those primitives generically; `Hierarchy` layers names
// and class semantics on top.

#ifndef HIREL_GRAPH_DAG_H_
#define HIREL_GRAPH_DAG_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "common/status.h"

namespace hirel {

/// Dense node identifier. Ids are stable for the life of the graph; removed
/// nodes leave holes that are never reused.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// An immutable view answering "is v reachable from u?" for one version of
/// a Dag. Built once per version stamp and shared via shared_ptr, so any
/// number of threads can query it concurrently with no synchronization:
/// readers on other threads (sessions sharing a Database) probe it while
/// the owning Dag moves on to a new version.
///
/// Two representations, chosen by graph size (Dag::closure_node_limit):
///  * closure-backed — one transitive-closure bitset row per node; every
///    query is decided (kYes/kNo).
///  * interval-backed — DFS [enter, exit) ranges over the first-parent
///    spanning forest. Containment proves reachability (kYes); on
///    single-parent graphs non-containment disproves it (kNo); otherwise
///    the answer is kUnknown and the caller falls back to a BFS.
class ReachabilitySnapshot {
 public:
  enum class Answer : uint8_t { kNo = 0, kYes = 1, kUnknown = 2 };

  /// Answers for live nodes u != v; the trivial cases are the caller's.
  Answer Query(NodeId u, NodeId v) const {
    if (closure_backed_) {
      return closure_[u].Test(v) ? Answer::kYes : Answer::kNo;
    }
    // exit_ == 0 marks a node the spanning-forest DFS never reached (only
    // possible via a non-first parent); such nodes bypass the fast path.
    if (exit_[v] != 0 && enter_[u] <= enter_[v] && exit_[v] <= exit_[u]) {
      return Answer::kYes;
    }
    return single_parent_ ? Answer::kNo : Answer::kUnknown;
  }

  /// True when every query is decided without a BFS fallback.
  bool complete() const { return closure_backed_ || single_parent_; }

  bool closure_backed() const { return closure_backed_; }

  /// Reachability row for n (bit i set iff i is reachable from n).
  /// Requires closure_backed().
  const DynamicBitset& ClosureRow(NodeId n) const { return closure_[n]; }

 private:
  friend class Dag;

  bool closure_backed_ = false;
  bool single_parent_ = false;
  std::vector<DynamicBitset> closure_;
  std::vector<uint32_t> enter_;
  std::vector<uint32_t> exit_;
};

/// A mutable DAG with cycle rejection, reachability, topological orderings,
/// incremental transitive reduction, and the paper's node elimination.
///
/// Thread-safety: concurrent const (query) access is safe. Reachability is
/// served from an immutable ReachabilitySnapshot published through an
/// atomic pointer — after the one-time build (mutex-guarded, double
/// checked) the query path takes no lock and touches no mutable state.
/// Mutations are single-writer: callers must exclude queries while
/// mutating, matching the paper's single-user model.
class Dag {
 public:
  /// Default for SetClosureNodeLimit: above this node count snapshots use
  /// DFS intervals (+ BFS fallback) instead of the O(V^2)-bit closure.
  static constexpr size_t kDefaultClosureNodeLimit = 8192;

  Dag() = default;

  Dag(const Dag& other) { CopyFrom(other); }
  Dag& operator=(const Dag& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Adds an isolated node and returns its id.
  NodeId AddNode();

  /// Number of ids ever allocated (including removed nodes' holes).
  size_t capacity() const { return out_.size(); }

  /// Number of live nodes.
  size_t num_nodes() const { return num_alive_; }

  /// Number of live edges.
  size_t num_edges() const { return num_edges_; }

  bool alive(NodeId n) const { return n < alive_.size() && alive_[n]; }

  /// Adds edge u -> v.
  ///
  /// Fails with kIntegrityViolation if the edge would create a cycle (the
  /// type-irredundancy constraint of Section 3.1) and with kAlreadyExists if
  /// the edge is already present.
  Status AddEdge(NodeId u, NodeId v);

  /// Adds edge u -> v while maintaining the transitive reduction, the
  /// representation required for off-path preemption (Appendix).
  ///
  /// If v is already reachable from u the edge is *redundant* and is not
  /// inserted (returns OK with `*inserted = false` if provided). Inserting
  /// the edge removes any existing direct edges that it makes redundant.
  Status AddEdgeReduced(NodeId u, NodeId v, bool* inserted = nullptr);

  /// Removes edge u -> v; kNotFound if absent.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Detaches and removes node n (edges incident on n are dropped without
  /// reconnecting; see EliminateNode for the paper's semantics-preserving
  /// removal).
  Status RemoveNode(NodeId n);

  /// The node elimination procedure of Section 2.1: removes n and, for each
  /// former predecessor j (in reverse topological order) and former
  /// successor k (in topological order), adds j -> k unless a path j => k
  /// already exists. With `keep_redundant_edges` the path check is skipped,
  /// which yields on-path preemption semantics (Appendix).
  Status EliminateNode(NodeId n, bool keep_redundant_edges = false);

  /// True if the edge u -> v is present.
  bool HasEdge(NodeId u, NodeId v) const;

  /// True if v is reachable from u (u == v counts as reachable).
  bool Reachable(NodeId u, NodeId v) const;

  /// Direct successors / predecessors of n.
  const std::vector<NodeId>& Children(NodeId n) const { return out_[n]; }
  const std::vector<NodeId>& Parents(NodeId n) const { return in_[n]; }

  /// All live node ids, ascending.
  std::vector<NodeId> Nodes() const;

  /// A topological order over all live nodes (parents before children).
  std::vector<NodeId> TopologicalOrder() const;

  /// All live nodes reachable from n, including n itself.
  std::vector<NodeId> Descendants(NodeId n) const;

  /// All live nodes that reach n, including n itself.
  std::vector<NodeId> Ancestors(NodeId n) const;

  /// Live nodes with no in-edges.
  std::vector<NodeId> Roots() const;

  /// Live nodes with no out-edges.
  std::vector<NodeId> Leaves() const;

  /// True if the graph currently contains a redundant edge, i.e. an edge
  /// u -> v such that v is reachable from u without that edge. The
  /// transitive reduction of a DAG is unique and contains no such edge.
  bool HasRedundantEdge() const;

  /// Reachability row for n: bit i set iff node i is reachable from n.
  /// Served from the closure-backed snapshot; requires
  /// capacity() <= closure_node_limit().
  const DynamicBitset& ClosureRow(NodeId n) const;

  /// The current reachability snapshot, building it if stale. The returned
  /// shared_ptr keeps the snapshot valid across subsequent Dag mutations,
  /// so batch jobs can pin one consistent view for their whole run.
  std::shared_ptr<const ReachabilitySnapshot> reachability() const;

  /// Sets the node-count threshold above which snapshots switch from the
  /// bitset closure to DFS intervals + BFS fallback. A mutation (single
  /// writer, like all mutations); invalidates the current snapshot.
  void SetClosureNodeLimit(size_t limit);

  size_t closure_node_limit() const { return closure_node_limit_; }

 private:
  bool ReachableBfs(NodeId u, NodeId v) const;
  void InvalidateClosure() {
    snapshot_ptr_.store(nullptr, std::memory_order_release);
  }
  /// Builds and publishes the snapshot if none is current; returns the
  /// published snapshot (kept alive by snapshot_).
  const ReachabilitySnapshot* EnsureSnapshot() const;
  std::shared_ptr<const ReachabilitySnapshot> BuildSnapshot() const;
  void CopyFrom(const Dag& other);

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::vector<bool> alive_;
  size_t num_alive_ = 0;
  size_t num_edges_ = 0;
  size_t closure_node_limit_ = kDefaultClosureNodeLimit;

  // Snapshot publication: built under cache_mutex_ (double-checked), then
  // exposed through snapshot_ptr_ so queries are lock-free. snapshot_
  // owns the object; snapshot_ptr_ is null when stale.
  mutable std::mutex cache_mutex_;
  mutable std::shared_ptr<const ReachabilitySnapshot> snapshot_;
  mutable std::atomic<const ReachabilitySnapshot*> snapshot_ptr_{nullptr};
};

}  // namespace hirel

#endif  // HIREL_GRAPH_DAG_H_
