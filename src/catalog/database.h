// Database: the catalog owning hierarchies and relations.

#ifndef HIREL_CATALOG_DATABASE_H_
#define HIREL_CATALOG_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/virtual_relation.h"
#include "common/result.h"
#include "core/hierarchical_relation.h"
#include "core/subsumption_cache.h"
#include "hierarchy/hierarchy.h"
#include "obs/metrics.h"

namespace hirel {

/// Owns named hierarchies and named hierarchical relations. All pointers
/// handed out stay valid until the owning Database is destroyed or the
/// entity is dropped (hierarchies referenced by a relation's schema cannot
/// be dropped).
class Database {
 public:
  Database() = default;

  /// True iff `name` lies in the reserved system-catalog namespace. Such
  /// names resolve to virtual relations (or hidden system hierarchies) and
  /// are rejected by every DDL entry point.
  static bool IsSysName(std::string_view name) {
    return name.substr(0, 4) == "sys.";
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // ----- Hierarchies --------------------------------------------------------

  /// Creates a hierarchy whose root class is named `name`.
  Result<Hierarchy*> CreateHierarchy(std::string_view name,
                                     HierarchyOptions options = {});

  Result<Hierarchy*> GetHierarchy(std::string_view name);
  Result<const Hierarchy*> GetHierarchy(std::string_view name) const;

  /// Drops a hierarchy; kIntegrityViolation if any relation references it.
  Status DropHierarchy(std::string_view name);

  /// Removes node `node` from `hierarchy` via the paper's node-elimination
  /// procedure (subsumption among the remaining nodes is preserved).
  /// Fails with kIntegrityViolation if any relation's tuple references the
  /// node — eliminating it would leave dangling components.
  Status EliminateNode(std::string_view hierarchy, NodeId node);

  /// Names of all hierarchies, sorted.
  std::vector<std::string> HierarchyNames() const;

  // ----- Relations ----------------------------------------------------------

  /// Creates a relation over (attribute name, hierarchy name) pairs.
  Result<HierarchicalRelation*> CreateRelation(
      std::string_view name,
      const std::vector<std::pair<std::string, std::string>>& attributes);

  /// Registers an already-built relation (e.g. an operator result) under
  /// its own name. Every hierarchy in its schema must be owned by this
  /// database. Fails with kAlreadyExists if the name is taken.
  Result<HierarchicalRelation*> AdoptRelation(HierarchicalRelation relation);

  /// Same, but with `replace_existing` an existing relation of that name
  /// is swapped out. The replaced relation's cache entry MUST be (and is)
  /// evicted here: the incoming relation carries its own tuple-id space
  /// and mutation journal, and a fresh journal's floor claims coverage of
  /// any older stamp — a journal patch against the old graph would pass
  /// the coverage test and quietly produce the wrong graph.
  Result<HierarchicalRelation*> AdoptRelation(HierarchicalRelation relation,
                                              bool replace_existing);

  Result<HierarchicalRelation*> GetRelation(std::string_view name);
  Result<const HierarchicalRelation*> GetRelation(std::string_view name) const;

  Status DropRelation(std::string_view name);

  /// Names of all relations, sorted.
  std::vector<std::string> RelationNames() const;

  // ----- Caches -------------------------------------------------------------

  /// The database's subsumption-graph cache. Entries are validated against
  /// relation/hierarchy version stamps on every lookup, so a cached graph
  /// can never be stale; dropping or replacing a relation evicts its entry
  /// eagerly to bound memory. Dropping the whole Database (e.g. on LOAD)
  /// drops the cache with it.
  SubsumptionCache& subsumption_cache() { return subsumption_cache_; }
  const SubsumptionCache& subsumption_cache() const {
    return subsumption_cache_;
  }

  // ----- Virtual relations (system catalog) ---------------------------------

  /// Registers a provider under its own (reserved, "sys."-prefixed) name,
  /// replacing any previous provider of that name. The provider's schema
  /// hierarchies must be registered via AddSysHierarchy (or owned by this
  /// database). The Database must not be moved after registration.
  Status RegisterVirtualRelation(std::unique_ptr<VirtualRelationProvider> p);

  /// The provider registered under `name`, or null. Non-const pointer from
  /// const access for the same reason as metrics(): materializing a system
  /// relation never changes observable catalog state.
  VirtualRelationProvider* FindVirtualRelation(std::string_view name) const;

  /// Names of all registered virtual relations, sorted.
  std::vector<std::string> VirtualRelationNames() const;

  /// Registers a hidden hierarchy backing virtual-relation schemas. It is
  /// excluded from HierarchyNames() / GetHierarchy() — and therefore from
  /// snapshots — and deliberately from OwnsHierarchy too: adopting an
  /// operator result over system relations (CREATE ... AS sys.x JOIN ...)
  /// is refused, because SAVE could not serialize its hidden domains.
  Hierarchy* AddSysHierarchy(std::string name);

  // ----- Observability ------------------------------------------------------

  /// The engine-wide metrics registry. Owned by the Database so that
  /// SHOW METRICS scopes to the catalog being queried and LOAD (which
  /// replaces the Database) starts a fresh epoch. Const access is allowed
  /// because recording a metric never changes observable catalog state.
  obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  bool OwnsHierarchy(const Hierarchy* hierarchy) const;

  std::map<std::string, std::unique_ptr<Hierarchy>, std::less<>> hierarchies_;
  std::map<std::string, std::unique_ptr<HierarchicalRelation>, std::less<>>
      relations_;
  /// Hidden hierarchies backing virtual-relation schemas (stable pointers;
  /// never serialized, never listed).
  std::vector<std::unique_ptr<Hierarchy>> sys_hierarchies_;
  std::map<std::string, std::unique_ptr<VirtualRelationProvider>, std::less<>>
      virtual_relations_;
  SubsumptionCache subsumption_cache_;
  mutable obs::MetricsRegistry metrics_;
};

}  // namespace hirel

#endif  // HIREL_CATALOG_DATABASE_H_
