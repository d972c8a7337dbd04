#include "catalog/database.h"

#include "common/str_util.h"
#include "obs/log.h"

namespace hirel {

Result<Hierarchy*> Database::CreateHierarchy(std::string_view name,
                                             HierarchyOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("hierarchy name must not be empty");
  }
  if (IsSysName(name)) {
    return Status::InvalidArgument(
        StrCat("'", name, "': the sys. namespace is reserved for the "
               "system catalog"));
  }
  if (hierarchies_.find(name) != hierarchies_.end()) {
    return Status::AlreadyExists(StrCat("hierarchy '", name, "'"));
  }
  auto hierarchy = std::make_unique<Hierarchy>(std::string(name), options);
  Hierarchy* raw = hierarchy.get();
  hierarchies_.emplace(std::string(name), std::move(hierarchy));
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "create_hierarchy",
            {{"name", std::string(name)}});
  return raw;
}

Result<Hierarchy*> Database::GetHierarchy(std::string_view name) {
  auto it = hierarchies_.find(name);
  if (it == hierarchies_.end()) {
    return Status::NotFound(StrCat("hierarchy '", name, "'"));
  }
  return it->second.get();
}

Result<const Hierarchy*> Database::GetHierarchy(std::string_view name) const {
  auto it = hierarchies_.find(name);
  if (it == hierarchies_.end()) {
    return Status::NotFound(StrCat("hierarchy '", name, "'"));
  }
  return static_cast<const Hierarchy*>(it->second.get());
}

Status Database::DropHierarchy(std::string_view name) {
  auto it = hierarchies_.find(name);
  if (it == hierarchies_.end()) {
    return Status::NotFound(StrCat("hierarchy '", name, "'"));
  }
  for (const auto& [rel_name, relation] : relations_) {
    const Schema& schema = relation->schema();
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema.hierarchy(i) == it->second.get()) {
        return Status::IntegrityViolation(
            StrCat("hierarchy '", name, "' is referenced by relation '",
                   rel_name, "'"));
      }
    }
  }
  hierarchies_.erase(it);
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "drop_hierarchy",
            {{"name", std::string(name)}});
  return Status::OK();
}

Status Database::EliminateNode(std::string_view hierarchy, NodeId node) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, GetHierarchy(hierarchy));
  if (!h->alive(node)) {
    return Status::NotFound(StrCat("node ", node, " in hierarchy '",
                                   hierarchy, "'"));
  }
  for (const auto& [rel_name, relation] : relations_) {
    const Schema& schema = relation->schema();
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema.hierarchy(i) != h) continue;
      for (TupleId id : relation->TupleIds()) {
        if (relation->tuple(id).item[i] == node) {
          return Status::IntegrityViolation(
              StrCat("node '", h->NodeName(node), "' is referenced by a "
                     "tuple of relation '", rel_name,
                     "'; retract it first"));
        }
      }
    }
  }
  std::string name = h->NodeName(node);
  HIREL_RETURN_IF_ERROR(h->EliminateNode(node));
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "eliminate_node",
            {{"hierarchy", std::string(hierarchy)}, {"node", name}});
  return Status::OK();
}

std::vector<std::string> Database::HierarchyNames() const {
  std::vector<std::string> names;
  names.reserve(hierarchies_.size());
  for (const auto& [name, _] : hierarchies_) names.push_back(name);
  return names;
}

Result<HierarchicalRelation*> Database::CreateRelation(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (IsSysName(name)) {
    return Status::InvalidArgument(
        StrCat("'", name, "': the sys. namespace is reserved for the "
               "system catalog"));
  }
  if (relations_.find(name) != relations_.end()) {
    return Status::AlreadyExists(StrCat("relation '", name, "'"));
  }
  Schema schema;
  for (const auto& [attr_name, hierarchy_name] : attributes) {
    HIREL_ASSIGN_OR_RETURN(Hierarchy * hierarchy,
                           GetHierarchy(hierarchy_name));
    HIREL_RETURN_IF_ERROR(schema.Append(attr_name, hierarchy));
  }
  auto relation = std::make_unique<HierarchicalRelation>(std::string(name),
                                                        std::move(schema));
  HierarchicalRelation* raw = relation.get();
  relations_.emplace(std::string(name), std::move(relation));
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "create_relation",
            {{"name", std::string(name)},
             {"attributes", StrCat(attributes.size())}});
  return raw;
}

Result<HierarchicalRelation*> Database::AdoptRelation(
    HierarchicalRelation relation) {
  return AdoptRelation(std::move(relation), /*replace_existing=*/false);
}

Result<HierarchicalRelation*> Database::AdoptRelation(
    HierarchicalRelation relation, bool replace_existing) {
  if (IsSysName(relation.name())) {
    return Status::InvalidArgument(
        StrCat("'", relation.name(), "': the sys. namespace is reserved "
               "for the system catalog"));
  }
  auto existing = relations_.find(relation.name());
  if (existing != relations_.end() && !replace_existing) {
    return Status::AlreadyExists(StrCat("relation '", relation.name(), "'"));
  }
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!OwnsHierarchy(schema.hierarchy(i))) {
      // System hierarchies are intentionally "not owned": a result derived
      // from sys.* relations cannot be adopted (SAVE could not serialize
      // its hidden domains).
      return Status::InvalidArgument(
          StrCat("relation '", relation.name(), "' references hierarchy '",
                 schema.hierarchy(i)->name(),
                 IsSysName(schema.hierarchy(i)->name())
                     ? "': results over sys. relations cannot be stored"
                     : "' not owned by this database"));
    }
  }
  std::string name = relation.name();
  // Evict on every path, including replacement: the incoming relation's
  // journal starts with floor 0 and would claim to cover the cached
  // entry's stamp, so a later Get could patch the old graph with the new
  // relation's records instead of rebuilding.
  subsumption_cache_.Invalidate(name);
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "adopt_relation",
            {{"name", name}, {"tuples", StrCat(relation.size())},
             {"replaced",
              existing != relations_.end() ? "true" : "false"}});
  auto owned =
      std::make_unique<HierarchicalRelation>(std::move(relation));
  HierarchicalRelation* raw = owned.get();
  if (existing != relations_.end()) {
    existing->second = std::move(owned);
    return raw;
  }
  relations_.emplace(std::move(name), std::move(owned));
  return raw;
}

Result<HierarchicalRelation*> Database::GetRelation(std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "'"));
  }
  return it->second.get();
}

Result<const HierarchicalRelation*> Database::GetRelation(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "'"));
  }
  return static_cast<const HierarchicalRelation*>(it->second.get());
}

Status Database::DropRelation(std::string_view name) {
  if (IsSysName(name)) {
    return Status::InvalidArgument(
        StrCat("system relation '", name, "' cannot be dropped"));
  }
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "'"));
  }
  subsumption_cache_.Invalidate(it->first);
  relations_.erase(it);
  HIREL_LOG(obs::LogLevel::kInfo, "catalog", "drop_relation",
            {{"name", std::string(name)}});
  return Status::OK();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, _] : relations_) names.push_back(name);
  return names;
}

bool Database::OwnsHierarchy(const Hierarchy* hierarchy) const {
  for (const auto& [_, owned] : hierarchies_) {
    if (owned.get() == hierarchy) return true;
  }
  return false;
}

Status Database::RegisterVirtualRelation(
    std::unique_ptr<VirtualRelationProvider> p) {
  if (p == nullptr) {
    return Status::InvalidArgument("null virtual-relation provider");
  }
  if (!IsSysName(p->name())) {
    return Status::InvalidArgument(
        StrCat("virtual relation '", p->name(),
               "' must live in the sys. namespace"));
  }
  std::string name = p->name();
  virtual_relations_[std::move(name)] = std::move(p);
  return Status::OK();
}

VirtualRelationProvider* Database::FindVirtualRelation(
    std::string_view name) const {
  auto it = virtual_relations_.find(name);
  if (it == virtual_relations_.end()) return nullptr;
  return it->second.get();
}

std::vector<std::string> Database::VirtualRelationNames() const {
  std::vector<std::string> names;
  names.reserve(virtual_relations_.size());
  for (const auto& [name, _] : virtual_relations_) names.push_back(name);
  return names;
}

Hierarchy* Database::AddSysHierarchy(std::string name) {
  sys_hierarchies_.push_back(std::make_unique<Hierarchy>(std::move(name)));
  return sys_hierarchies_.back().get();
}

}  // namespace hirel
