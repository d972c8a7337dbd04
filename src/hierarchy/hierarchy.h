// Hierarchy: a named class/instance hierarchy graph over one attribute
// domain (Section 2.1 of the paper).
//
// A Hierarchy is a rooted DAG whose root represents the whole domain, whose
// internal nodes are named classes, and whose leaves may be classes or
// atomic instances. Edges run from the more general class to the more
// specific class/instance ("derived as restrictions of the general class").
// Class membership is transitive: instance a is a member of class B iff B
// reaches a.
//
// Integrity:
//  * type-irredundancy — the graph must stay acyclic; violating edges are
//    rejected (Section 3.1);
//  * transitive reduction — redundant subsumption edges are dropped on
//    insertion by default, which realises off-path preemption (Appendix).
//    Construct with HierarchyOptions{.keep_redundant_edges = true} to retain
//    them, which realises on-path preemption.
//
// Preference edges (Appendix) do not denote set inclusion; they only bias
// the binding order between otherwise-conflicting classes and are stored
// separately from subsumption edges.

#ifndef HIREL_HIERARCHY_HIERARCHY_H_
#define HIREL_HIERARCHY_HIERARCHY_H_

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "common/revision.h"
#include "common/status.h"
#include "graph/dag.h"
#include "types/value.h"

namespace hirel {

/// Kind of a hierarchy node.
enum class NodeKind {
  /// A class: a (possibly empty) set of domain elements.
  kClass = 0,
  /// An instance: an atomic element, a leaf. "Each instance can be thought
  /// of as a level-0 class" (Section 2.1); hirel treats instances as
  /// singleton sets wherever convenient, exactly as the paper does.
  kInstance = 1,
};

/// Construction-time options for a Hierarchy.
struct HierarchyOptions {
  /// Retain redundant subsumption edges instead of maintaining the
  /// transitive reduction. Off-path preemption (the paper's default and
  /// "closest match to human intuition") requires `false`; on-path
  /// preemption requires `true`.
  bool keep_redundant_edges = false;
};

/// A named class/instance DAG for one attribute domain.
class Hierarchy {
 public:
  /// Creates a hierarchy whose root class is named `name` (the domain
  /// itself, e.g. "animal").
  explicit Hierarchy(std::string name, HierarchyOptions options = {});

  Hierarchy(const Hierarchy&) = default;
  Hierarchy& operator=(const Hierarchy&) = default;
  Hierarchy(Hierarchy&&) = default;
  Hierarchy& operator=(Hierarchy&&) = default;

  const std::string& name() const { return name_; }
  NodeId root() const { return root_; }
  const HierarchyOptions& options() const { return options_; }

  /// Monotonic version stamp, refreshed on every structural mutation (node
  /// or edge added, preference edge added, node eliminated). Subsumption
  /// between existing nodes can change with the graph, so caches of
  /// subsumption-derived structures must include this in their keys.
  uint64_t version() const { return version_; }

  /// Number of live nodes (classes + instances), including the root.
  size_t num_nodes() const { return dag_.num_nodes(); }
  size_t num_classes() const { return num_classes_; }
  size_t num_instances() const { return num_instances_; }

  // ----- Construction ------------------------------------------------------

  /// Adds class `name` under `parent`. Class names are unique within a
  /// hierarchy. Fails with kAlreadyExists on duplicates.
  Result<NodeId> AddClass(std::string_view name, NodeId parent);

  /// Adds class `name` directly under the root.
  Result<NodeId> AddClass(std::string_view name);

  /// Adds the atomic instance `value` under `parent`. Instance values are
  /// unique within a hierarchy. Fails with kAlreadyExists on duplicates.
  Result<NodeId> AddInstance(const Value& value, NodeId parent);

  /// Adds instance `value` directly under the root.
  Result<NodeId> AddInstance(const Value& value);

  /// Finds the existing instance for `value` or adds it under the root.
  /// This is how scalar domains (Fig. 11's enclosure sizes) intern values.
  NodeId Intern(const Value& value);

  /// Adds a subsumption edge parent -> child (multiple inheritance). Both
  /// nodes must exist; `child` may be a class or an instance. Rejects cycles
  /// (kIntegrityViolation). Under the default options a redundant edge is a
  /// silent no-op, matching the paper's requirement that only the transitive
  /// reduction is retained.
  Status AddEdge(NodeId parent, NodeId child);

  /// Adds a preference edge `weaker -> stronger` (Appendix): wherever tuples
  /// on `weaker` and `stronger` conflict for some item, `stronger` wins as
  /// if it were reachable from `weaker`. Preference edges must not create a
  /// cycle in the union of subsumption and preference edges.
  Status AddPreferenceEdge(NodeId weaker, NodeId stronger);

  /// Removes a node, reconnecting its neighbours via the paper's node
  /// elimination procedure so subsumption among the remaining nodes is
  /// preserved. The root cannot be eliminated.
  Status EliminateNode(NodeId n);

  // ----- Lookup -------------------------------------------------------------

  Result<NodeId> FindClass(std::string_view name) const;
  Result<NodeId> FindInstance(const Value& value) const;

  /// Resolves a name that may denote a class or a string-valued instance.
  Result<NodeId> FindByName(std::string_view name) const;

  bool alive(NodeId n) const { return dag_.alive(n); }
  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool is_instance(NodeId n) const { return kinds_[n] == NodeKind::kInstance; }
  bool is_class(NodeId n) const { return kinds_[n] == NodeKind::kClass; }

  /// Display name: class name, or the instance value's rendering.
  std::string NodeName(NodeId n) const;

  /// The class name of a class node (empty for instances).
  const std::string& ClassName(NodeId n) const { return class_names_[n]; }

  /// The payload of an instance node (null Value for classes).
  const Value& InstanceValue(NodeId n) const { return values_[n]; }

  const std::vector<NodeId>& Children(NodeId n) const {
    return dag_.Children(n);
  }
  const std::vector<NodeId>& Parents(NodeId n) const { return dag_.Parents(n); }

  /// Outgoing / incoming preference edges of n.
  const std::vector<NodeId>& PreferenceSuccessors(NodeId n) const {
    return n < pref_out_.size() ? pref_out_[n] : NoNodes();
  }
  const std::vector<NodeId>& PreferencePredecessors(NodeId n) const {
    return n < pref_in_.size() ? pref_in_[n] : NoNodes();
  }
  size_t num_preference_edges() const { return num_pref_edges_; }

  /// All live nodes / classes / instances.
  std::vector<NodeId> Nodes() const { return dag_.Nodes(); }
  std::vector<NodeId> Classes() const;
  std::vector<NodeId> Instances() const;

  // ----- Subsumption queries -------------------------------------------------

  /// True iff `general` subsumes `specific`: every known member of
  /// `specific` is a member of `general`. Reflexive.
  bool Subsumes(NodeId general, NodeId specific) const {
    return dag_.Reachable(general, specific);
  }

  /// True iff one of the nodes subsumes the other.
  bool Comparable(NodeId a, NodeId b) const {
    return Subsumes(a, b) || Subsumes(b, a);
  }

  /// The more specific of two comparable nodes; kInvalidNode if
  /// incomparable.
  NodeId Meet(NodeId a, NodeId b) const;

  /// Like Subsumes, but additionally honours preference edges: preference
  /// edge u -> v makes v "reachable" from u for binding-order purposes only.
  bool BindsBelow(NodeId general, NodeId specific) const;

  /// Every live node that binds at or above n: the ancestors of n in the
  /// union of subsumption and preference edges, n included. Exactly
  /// dag().Ancestors(n) when there are no preference edges; empty if n is
  /// not alive. BindsBelow(a, n) holds iff a is in the result.
  std::vector<NodeId> BindingAncestors(NodeId n) const;

  /// Every live node that n binds at or above (the union-graph
  /// descendants, n included); dually dag().Descendants(n) without
  /// preference edges.
  std::vector<NodeId> BindingDescendants(NodeId n) const;

  /// The maximal common descendants of a and b: nodes m subsumed by both,
  /// such that no other common descendant subsumes m. When a and b are
  /// comparable this is {Meet(a, b)}. An empty result is the paper's
  /// "optimistic" evidence that a and b are disjoint (Section 3.1).
  std::vector<NodeId> MaximalCommonDescendants(NodeId a, NodeId b) const;

  /// The overlap cone of n: every node that shares at least one descendant
  /// with n, i.e. the ancestors of n's descendant cone, as a bitset over
  /// dag().capacity(). MaximalCommonDescendants(a, n) is non-empty iff a is
  /// in the cone, so a scan can skip the MCD call for anything outside it.
  /// Subsumption edges only; empty if n is not alive.
  DynamicBitset OverlapCone(NodeId n) const;

  /// True when n has two or more subsumption parents. A maximal common
  /// descendant m of two incomparable nodes is always one: were p its only
  /// parent, every path into m would pass through p, so p would be a larger
  /// common descendant.
  bool IsJoinNode(NodeId n) const { return dag_.Parents(n).size() >= 2; }

  /// The nodes with a join node strictly below them, as a bitset over
  /// dag().capacity(). Two incomparable nodes share a descendant only when
  /// both are in it, so in a tree (no join node) incomparable means
  /// disjoint. Subsumption edges only. Built once per version() and shared
  /// like reachability(); safe to call from concurrent readers.
  std::shared_ptr<const DynamicBitset> JoinAncestors() const;

  /// True when a and b are incomparable and one of them has no children.
  /// A childless node's only descendant is itself, so the two share no
  /// descendant and MaximalCommonDescendants(a, b) is empty. Allocation-free;
  /// false proves nothing (two incomparable classes may still overlap).
  bool LeafDisjoint(NodeId a, NodeId b) const {
    return (dag_.Children(a).empty() || dag_.Children(b).empty()) &&
           !Comparable(a, b);
  }

  /// All atomic instances subsumed by n (n itself if n is an instance).
  /// This is the extension of the class in the database's closed world.
  std::vector<NodeId> AtomsUnder(NodeId n) const;

  /// Number of atomic instances subsumed by n without materialising them.
  size_t CountAtomsUnder(NodeId n) const;

  /// Direct access to the underlying DAG (read-only).
  const Dag& dag() const { return dag_; }

  /// Pins the current reachability snapshot of the subsumption DAG: the
  /// immutable, lock-free view that Subsumes (and through it ComputeBinding
  /// and every parallel kernel) queries. The returned pointer stays valid —
  /// and consistent with this hierarchy's current version stamp — even if
  /// the hierarchy mutates afterwards; mutations publish a fresh snapshot
  /// for later queries instead of touching this one.
  std::shared_ptr<const ReachabilitySnapshot> reachability() const {
    return dag_.reachability();
  }

  /// See Dag::SetClosureNodeLimit. A structural mutation: bumps the
  /// version stamp and invalidates the current snapshot.
  void SetClosureNodeLimit(size_t limit) {
    dag_.SetClosureNodeLimit(limit);
    version_ = NextRevision();
  }

  // ----- Edit journal --------------------------------------------------------

  /// Appends to `out` every node whose binding relations to *pre-existing*
  /// nodes may have changed by any edit newer than `version`; returns false
  /// when the edit journal no longer covers `version` (ring overflow, or an
  /// edit whose frontier was too large to record) — the caller must rebuild
  /// derived structures from scratch.
  ///
  /// Only reachability-changing edits are journalled: adding a node, a
  /// redundant edge, or changing the closure limit bumps version() without
  /// altering BindsBelow between any existing pair, so those leave no
  /// record and cost no ring space. For a novel subsumption or preference
  /// edge g -> s the affected set is the union-graph (subsumption +
  /// preference) ancestor cone of g plus the descendant cone of s, computed
  /// before the mutation: any pair (x, y) whose BindsBelow changed routes
  /// through the new edge, so x is in the first cone and y in the second —
  /// both endpoints of every changed pair are reported.
  bool AffectedSince(uint64_t version, std::vector<NodeId>* out) const;

 private:
  /// One journalled reachability-changing edit.
  struct RecordedEdit {
    uint64_t version;  // the hierarchy's version stamp after the edit
    bool unbounded;    // frontier exceeded kAffectedCap — forces rebuild
    std::vector<NodeId> affected;
  };
  static constexpr size_t kEditCapacity = 64;
  static constexpr size_t kAffectedCap = 4096;

  void RecordEdit(RecordedEdit edit);

  /// The union-graph ancestor cone of `top` plus descendant cone of
  /// `bottom` (each including its seed), or nullopt past kAffectedCap.
  std::optional<std::vector<NodeId>> BindingCones(NodeId top,
                                                  NodeId bottom) const;

  /// Union-graph BFS from a live n, upward (parents and preference
  /// predecessors) or downward; n included.
  std::vector<NodeId> UnionCone(NodeId n, bool up) const;

  Result<NodeId> AddNode(NodeKind kind, std::string class_name, Value value,
                         NodeId parent);

  std::string name_;
  HierarchyOptions options_;
  uint64_t version_ = NextRevision();
  Dag dag_;
  NodeId root_ = kInvalidNode;

  std::vector<NodeKind> kinds_;
  std::vector<std::string> class_names_;  // parallel to node ids
  std::vector<Value> values_;             // parallel to node ids

  std::unordered_map<std::string, NodeId> class_index_;
  std::unordered_map<Value, NodeId, ValueHash> instance_index_;

  /// The empty adjacency list served for nodes beyond pref_out_/pref_in_.
  static const std::vector<NodeId>& NoNodes();

  // Preference adjacency, indexed by node id. Most hierarchies have no
  // preference edge, so both stay empty until the first
  // AddPreferenceEdge sizes them; nodes added later read as edgeless
  // through the accessors until an edge of their own grows the lists.
  std::vector<std::vector<NodeId>> pref_out_;
  std::vector<std::vector<NodeId>> pref_in_;
  size_t num_pref_edges_ = 0;

  size_t num_classes_ = 0;
  size_t num_instances_ = 0;

  std::deque<RecordedEdit> edits_;
  /// Stamp of the newest dropped edit; versions below it are uncovered.
  uint64_t edit_floor_version_ = 0;

  /// JoinAncestors() for one version. Copies and assignments start empty,
  /// so a copied hierarchy builds its own on first use.
  struct JoinAncestorMemo {
    JoinAncestorMemo() = default;
    JoinAncestorMemo(const JoinAncestorMemo&) {}
    JoinAncestorMemo& operator=(const JoinAncestorMemo&) {
      bits.reset();
      return *this;
    }
    std::mutex mutex;
    uint64_t version = 0;
    std::shared_ptr<const DynamicBitset> bits;
  };
  mutable JoinAncestorMemo join_ancestors_;
};

}  // namespace hirel

#endif  // HIREL_HIERARCHY_HIERARCHY_H_
