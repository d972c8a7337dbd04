#include "hierarchy/hierarchy.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "common/str_util.h"

namespace hirel {

Hierarchy::Hierarchy(std::string name, HierarchyOptions options)
    : name_(std::move(name)), options_(options) {
  root_ = dag_.AddNode();
  kinds_.push_back(NodeKind::kClass);
  class_names_.push_back(name_);
  values_.emplace_back();
  class_index_.emplace(name_, root_);
  num_classes_ = 1;
}

Result<NodeId> Hierarchy::AddNode(NodeKind kind, std::string class_name,
                                  Value value, NodeId parent) {
  if (!dag_.alive(parent)) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': parent node ", parent,
               " does not exist"));
  }
  if (is_instance(parent)) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': instance '", NodeName(parent),
               "' cannot have children"));
  }
  NodeId id = dag_.AddNode();
  kinds_.push_back(kind);
  class_names_.push_back(std::move(class_name));
  values_.push_back(std::move(value));
  Status s = dag_.AddEdge(parent, id);
  assert(s.ok() && "edge to a brand-new node cannot fail");
  (void)s;
  if (kind == NodeKind::kClass) {
    ++num_classes_;
  } else {
    ++num_instances_;
  }
  version_ = NextRevision();
  return id;
}

Result<NodeId> Hierarchy::AddClass(std::string_view name, NodeId parent) {
  std::string key(name);
  if (key.empty()) {
    return Status::InvalidArgument("class name must not be empty");
  }
  if (class_index_.contains(key)) {
    return Status::AlreadyExists(
        StrCat("class '", key, "' in hierarchy '", name_, "'"));
  }
  HIREL_ASSIGN_OR_RETURN(NodeId id,
                         AddNode(NodeKind::kClass, key, Value(), parent));
  class_index_.emplace(std::move(key), id);
  return id;
}

Result<NodeId> Hierarchy::AddClass(std::string_view name) {
  return AddClass(name, root_);
}

Result<NodeId> Hierarchy::AddInstance(const Value& value, NodeId parent) {
  if (value.is_null()) {
    return Status::InvalidArgument("instance value must not be null");
  }
  if (instance_index_.contains(value)) {
    return Status::AlreadyExists(StrCat("instance '", value.ToString(),
                                        "' in hierarchy '", name_, "'"));
  }
  HIREL_ASSIGN_OR_RETURN(NodeId id,
                         AddNode(NodeKind::kInstance, "", value, parent));
  instance_index_.emplace(value, id);
  return id;
}

Result<NodeId> Hierarchy::AddInstance(const Value& value) {
  return AddInstance(value, root_);
}

NodeId Hierarchy::Intern(const Value& value) {
  auto it = instance_index_.find(value);
  if (it != instance_index_.end()) return it->second;
  Result<NodeId> added = AddInstance(value, root_);
  assert(added.ok());
  return added.value();
}

Status Hierarchy::AddEdge(NodeId parent, NodeId child) {
  if (!dag_.alive(parent) || !dag_.alive(child)) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': AddEdge on dead node"));
  }
  if (is_instance(parent)) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': instance '", NodeName(parent),
               "' cannot subsume other nodes"));
  }
  // A pre-reachable (redundant) edge changes no subsumption pair, so it
  // needs no journal record; a novel edge's frontier must be captured
  // before the mutation (the new edge cannot enlarge its own cones — that
  // would need a cycle).
  const bool pre_reachable = dag_.Reachable(parent, child);
  std::optional<std::vector<NodeId>> cones;
  if (!pre_reachable) cones = BindingCones(parent, child);
  if (options_.keep_redundant_edges) {
    Status s = dag_.AddEdge(parent, child);
    // Duplicate edges remain a no-op even in on-path mode.
    if (s.IsAlreadyExists()) return Status::OK();
    if (s.ok()) {
      version_ = NextRevision();
      if (!pre_reachable) {
        RecordEdit({version_, !cones.has_value(),
                    cones.has_value() ? std::move(*cones)
                                      : std::vector<NodeId>{}});
      }
    }
    return s;
  }
  bool inserted = false;
  Status s = dag_.AddEdgeReduced(parent, child, &inserted);
  if (s.ok()) {
    version_ = NextRevision();
    if (inserted && !pre_reachable) {
      RecordEdit({version_, !cones.has_value(),
                  cones.has_value() ? std::move(*cones)
                                    : std::vector<NodeId>{}});
    }
  }
  return s;
}

Status Hierarchy::AddPreferenceEdge(NodeId weaker, NodeId stronger) {
  if (!dag_.alive(weaker) || !dag_.alive(stronger)) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': preference edge on dead node"));
  }
  if (weaker == stronger) {
    return Status::InvalidArgument("preference self-edge");
  }
  // The union of subsumption and preference edges must stay acyclic, or
  // binding order would be ill-defined.
  if (BindsBelow(stronger, weaker)) {
    return Status::IntegrityViolation(
        StrCat("preference edge ", NodeName(weaker), " -> ",
               NodeName(stronger), " would create a binding cycle"));
  }
  const std::vector<NodeId>& existing = PreferenceSuccessors(weaker);
  if (std::find(existing.begin(), existing.end(), stronger) !=
      existing.end()) {
    return Status::AlreadyExists("preference edge");
  }
  std::optional<std::vector<NodeId>> cones = BindingCones(weaker, stronger);
  if (pref_out_.size() < dag_.capacity()) {
    pref_out_.resize(dag_.capacity());
    pref_in_.resize(dag_.capacity());
  }
  pref_out_[weaker].push_back(stronger);
  pref_in_[stronger].push_back(weaker);
  ++num_pref_edges_;
  version_ = NextRevision();
  RecordEdit({version_, !cones.has_value(),
              cones.has_value() ? std::move(*cones) : std::vector<NodeId>{}});
  return Status::OK();
}

Status Hierarchy::EliminateNode(NodeId n) {
  if (n == root_) {
    return Status::InvalidArgument(
        StrCat("hierarchy '", name_, "': cannot eliminate the root"));
  }
  if (!dag_.alive(n)) {
    return Status::NotFound(StrCat("node ", n));
  }
  if (is_class(n)) {
    class_index_.erase(class_names_[n]);
    --num_classes_;
  } else {
    instance_index_.erase(values_[n]);
    --num_instances_;
  }
  // Node elimination reconnects predecessors to successors, so subsumption
  // among the remaining nodes is preserved — only n itself (a tuple may
  // still reference it) loses its relations. Preference edges are not
  // rerouted, though: with any present, binding order through n may change
  // arbitrarily, so journal an unbounded edit.
  const bool had_pref_edges = num_pref_edges_ > 0;
  // Drop preference edges incident on n.
  if (n < pref_out_.size()) {
    for (NodeId v : pref_out_[n]) {
      auto& in = pref_in_[v];
      in.erase(std::remove(in.begin(), in.end(), n), in.end());
      --num_pref_edges_;
    }
    for (NodeId u : pref_in_[n]) {
      auto& out = pref_out_[u];
      out.erase(std::remove(out.begin(), out.end(), n), out.end());
      --num_pref_edges_;
    }
    pref_out_[n].clear();
    pref_in_[n].clear();
  }
  version_ = NextRevision();
  RecordEdit({version_, had_pref_edges, std::vector<NodeId>{n}});
  return dag_.EliminateNode(n, options_.keep_redundant_edges);
}

Result<NodeId> Hierarchy::FindClass(std::string_view name) const {
  auto it = class_index_.find(std::string(name));
  if (it == class_index_.end()) {
    return Status::NotFound(
        StrCat("class '", name, "' in hierarchy '", name_, "'"));
  }
  return it->second;
}

Result<NodeId> Hierarchy::FindInstance(const Value& value) const {
  auto it = instance_index_.find(value);
  if (it == instance_index_.end()) {
    return Status::NotFound(StrCat("instance '", value.ToString(),
                                   "' in hierarchy '", name_, "'"));
  }
  return it->second;
}

Result<NodeId> Hierarchy::FindByName(std::string_view name) const {
  Result<NodeId> as_class = FindClass(name);
  if (as_class.ok()) return as_class;
  Result<NodeId> as_instance = FindInstance(Value::String(std::string(name)));
  if (as_instance.ok()) return as_instance;
  return Status::NotFound(
      StrCat("no class or instance named '", name, "' in hierarchy '", name_,
             "'"));
}

std::string Hierarchy::NodeName(NodeId n) const {
  if (!dag_.alive(n)) return StrCat("<dead:", n, ">");
  return is_class(n) ? class_names_[n] : values_[n].ToString();
}

std::vector<NodeId> Hierarchy::Classes() const {
  std::vector<NodeId> out;
  for (NodeId n : dag_.Nodes()) {
    if (is_class(n)) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> Hierarchy::Instances() const {
  std::vector<NodeId> out;
  for (NodeId n : dag_.Nodes()) {
    if (is_instance(n)) out.push_back(n);
  }
  return out;
}

NodeId Hierarchy::Meet(NodeId a, NodeId b) const {
  if (Subsumes(a, b)) return b;
  if (Subsumes(b, a)) return a;
  return kInvalidNode;
}

bool Hierarchy::BindsBelow(NodeId general, NodeId specific) const {
  if (!dag_.alive(general) || !dag_.alive(specific)) return false;
  if (general == specific) return true;
  if (num_pref_edges_ == 0) return Subsumes(general, specific);
  // BFS over the union of subsumption and preference edges.
  std::vector<bool> seen(dag_.capacity(), false);
  std::deque<NodeId> queue{general};
  seen[general] = true;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    auto visit = [&](NodeId next) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    };
    for (NodeId next : dag_.Children(cur)) {
      if (next == specific) return true;
      visit(next);
    }
    for (NodeId next : PreferenceSuccessors(cur)) {
      if (next == specific) return true;
      visit(next);
    }
  }
  return false;
}

std::vector<NodeId> Hierarchy::BindingAncestors(NodeId n) const {
  if (num_pref_edges_ == 0) return dag_.Ancestors(n);
  return UnionCone(n, /*up=*/true);
}

std::vector<NodeId> Hierarchy::BindingDescendants(NodeId n) const {
  if (num_pref_edges_ == 0) return dag_.Descendants(n);
  return UnionCone(n, /*up=*/false);
}

std::vector<NodeId> Hierarchy::UnionCone(NodeId n, bool up) const {
  std::vector<NodeId> out;
  if (!dag_.alive(n)) return out;
  std::vector<bool> seen(dag_.capacity(), false);
  auto visit = [&](NodeId next) {
    if (!seen[next]) {
      seen[next] = true;
      out.push_back(next);
    }
  };
  visit(n);
  for (size_t head = 0; head < out.size(); ++head) {
    NodeId cur = out[head];
    for (NodeId next : up ? dag_.Parents(cur) : dag_.Children(cur)) {
      visit(next);
    }
    for (NodeId next :
         up ? PreferencePredecessors(cur) : PreferenceSuccessors(cur)) {
      visit(next);
    }
  }
  return out;
}

std::vector<NodeId> Hierarchy::MaximalCommonDescendants(NodeId a,
                                                        NodeId b) const {
  if (!dag_.alive(a) || !dag_.alive(b)) return {};
  NodeId meet = Meet(a, b);
  if (meet != kInvalidNode) return {meet};

  // Common descendants = Descendants(a) ∩ Descendants(b). A common
  // descendant m is maximal iff none of its direct parents is itself a
  // common descendant (any common descendant that reaches m does so through
  // a parent of m which is then also a common descendant).
  std::vector<NodeId> da = dag_.Descendants(a);
  std::vector<bool> in_a(dag_.capacity(), false);
  for (NodeId n : da) in_a[n] = true;
  std::vector<NodeId> db = dag_.Descendants(b);
  std::vector<bool> common(dag_.capacity(), false);
  std::vector<NodeId> commons;
  for (NodeId n : db) {
    if (in_a[n]) {
      common[n] = true;
      commons.push_back(n);
    }
  }
  std::vector<NodeId> maximal;
  for (NodeId m : commons) {
    bool has_common_parent = false;
    for (NodeId p : dag_.Parents(m)) {
      if (common[p]) {
        has_common_parent = true;
        break;
      }
    }
    if (!has_common_parent) maximal.push_back(m);
  }
  std::sort(maximal.begin(), maximal.end());
  return maximal;
}

DynamicBitset Hierarchy::OverlapCone(NodeId n) const {
  DynamicBitset cone(dag_.capacity());
  if (!dag_.alive(n)) return cone;
  // Every descendant of n (n included) seeds the upward walk; the walk
  // marks each node the first time it is reached, so both passes together
  // visit every node and edge at most twice.
  std::vector<NodeId> queue;
  for (NodeId d : dag_.Descendants(n)) {
    cone.Set(d);
    queue.push_back(d);
  }
  while (!queue.empty()) {
    NodeId cur = queue.back();
    queue.pop_back();
    for (NodeId p : dag_.Parents(cur)) {
      if (cone.Test(p)) continue;
      cone.Set(p);
      queue.push_back(p);
    }
  }
  return cone;
}

std::shared_ptr<const DynamicBitset> Hierarchy::JoinAncestors() const {
  std::lock_guard<std::mutex> lock(join_ancestors_.mutex);
  if (join_ancestors_.bits != nullptr && join_ancestors_.version == version_) {
    return join_ancestors_.bits;
  }
  // Walk up from every join node; a node is marked, and its parents
  // queued, at most once.
  auto bits = std::make_shared<DynamicBitset>(dag_.capacity());
  std::vector<NodeId> queue;
  for (NodeId n = 0; n < dag_.capacity(); ++n) {
    if (dag_.alive(n) && IsJoinNode(n)) queue.push_back(n);
  }
  while (!queue.empty()) {
    NodeId cur = queue.back();
    queue.pop_back();
    for (NodeId p : dag_.Parents(cur)) {
      if (bits->Test(p)) continue;
      bits->Set(p);
      queue.push_back(p);
    }
  }
  join_ancestors_.bits = std::move(bits);
  join_ancestors_.version = version_;
  return join_ancestors_.bits;
}

const std::vector<NodeId>& Hierarchy::NoNodes() {
  static const std::vector<NodeId> kNone;
  return kNone;
}

std::vector<NodeId> Hierarchy::AtomsUnder(NodeId n) const {
  std::vector<NodeId> atoms;
  for (NodeId d : dag_.Descendants(n)) {
    if (is_instance(d)) atoms.push_back(d);
  }
  std::sort(atoms.begin(), atoms.end());
  return atoms;
}

size_t Hierarchy::CountAtomsUnder(NodeId n) const {
  size_t count = 0;
  for (NodeId d : dag_.Descendants(n)) {
    if (is_instance(d)) ++count;
  }
  return count;
}

bool Hierarchy::AffectedSince(uint64_t version,
                              std::vector<NodeId>* out) const {
  if (version < edit_floor_version_) return false;
  for (const RecordedEdit& e : edits_) {
    if (e.version <= version) continue;
    if (e.unbounded) return false;
    out->insert(out->end(), e.affected.begin(), e.affected.end());
  }
  return true;
}

void Hierarchy::RecordEdit(RecordedEdit edit) {
  if (edits_.size() >= kEditCapacity) {
    edit_floor_version_ = edits_.front().version;
    edits_.pop_front();
  }
  edits_.push_back(std::move(edit));
}

std::optional<std::vector<NodeId>> Hierarchy::BindingCones(
    NodeId top, NodeId bottom) const {
  std::vector<NodeId> out;
  std::vector<bool> seen(dag_.capacity(), false);
  auto bfs = [&](NodeId start, bool up) -> bool {
    std::deque<NodeId> queue;
    if (!seen[start]) {
      seen[start] = true;
      out.push_back(start);
    }
    queue.push_back(start);
    while (!queue.empty()) {
      NodeId cur = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId next) {
        if (!seen[next]) {
          seen[next] = true;
          out.push_back(next);
          queue.push_back(next);
        }
      };
      for (NodeId next : up ? dag_.Parents(cur) : dag_.Children(cur)) {
        visit(next);
      }
      for (NodeId next :
           up ? PreferencePredecessors(cur) : PreferenceSuccessors(cur)) {
        visit(next);
      }
      if (out.size() > kAffectedCap) return false;
    }
    return true;
  };
  if (!bfs(top, /*up=*/true)) return std::nullopt;
  if (!bfs(bottom, /*up=*/false)) return std::nullopt;
  return out;
}

}  // namespace hirel
