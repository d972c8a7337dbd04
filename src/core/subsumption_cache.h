// SubsumptionCache: versioned per-relation cache of SubsumptionGraphs.
//
// BuildSubsumptionGraph scans the store's index once per tuple, and
// consolidate, explicate (hence extension, aggregation, and every DERIVE
// fixpoint round) would rebuild it from scratch per call. Relations mutate
// far less often than they are queried, so the graph is cached and keyed on
// the relation's version stamp plus the version stamps of every hierarchy
// in its schema (a CONNECT or PREFER can change subsumption between items
// that are already asserted). Stamps come from the process-wide revision
// counter (common/revision.h): equal stamps imply identical state, so a
// hit can never be stale.
//
// On a stamp mismatch the cache first tries to *patch* the stale graph in
// place: the relation's mutation journal names exactly which tuples
// changed since the cached stamp, the schema hierarchies' edit journals
// name which nodes a CONNECT/PREFER may have re-related, and
// PatchSubsumptionGraph re-places just those tuples — byte-identical to a
// full rebuild at a fraction of the index scans. A full rebuild remains
// the fallback whenever a journal no longer covers the stamp or the
// delta is too large to be worth it; Invalidate or Clear forces one.
//
// A Database owns one cache; the plan executor consults it for graphs of
// base (catalog) relations and bypasses it for operator intermediates.

#ifndef HIREL_CORE_SUBSUMPTION_CACHE_H_
#define HIREL_CORE_SUBSUMPTION_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/subsumption.h"
#include "obs/trace.h"

namespace hirel {

/// Cache of subsumption graphs keyed by relation name and validated by
/// version stamps. Entries are rebuilt in place when stale.
///
/// Thread-safety: Get, Fresh, size, stats and ResetStats are safe to call
/// concurrently with each other. Entries are heap-allocated so a returned
/// graph reference survives rehashes caused by concurrent Gets for other
/// relations; it stays valid until the next Get/Invalidate/Clear *for
/// that name*. The map mutex is not held while a graph builds, so
/// concurrent misses on different names build in parallel; a concurrent
/// miss on the same name is coalesced under the entry's own latch.
/// Invalidate and Clear destroy entries and follow the single-writer rule:
/// they must not race with a Get/Fresh for the affected names, exactly
/// like mutations of the relations themselves.
class SubsumptionCache {
 public:
  /// How a Get was served, for EXPLAIN ANALYZE annotations.
  enum class GetOutcome : uint8_t {
    kNone = 0,  // no Get happened (default for stats structs)
    kHit,       // stamps matched, graph returned as-is
    kPatched,   // stale, journal delta applied in place
    kRebuilt,   // stale, full rebuild
  };

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;  // always equals patches + rebuilds
    size_t patches = 0;
    size_t rebuilds = 0;
    /// Rebuilds forced specifically by the relation journal no longer
    /// covering the cached stamp.
    size_t journal_overflows = 0;
    size_t invalidations = 0;
    /// Cumulative wall time spent in full builds and in patches.
    uint64_t build_ns = 0;
    uint64_t patch_ns = 0;
  };

  /// Snapshot of one cached entry, for introspection (sys.cache).
  struct EntryInfo {
    std::string relation;
    uint64_t relation_version = 0;
    /// Tuples in the cached graph (0 for an entry allocated but never
    /// built).
    size_t graph_nodes = 0;
    size_t patches = 0;
    size_t rebuilds = 0;
  };

  /// Returns the subsumption graph of `relation`, reusing (or patching)
  /// the entry for `relation.name()` when possible. `outcome`, if given,
  /// reports how the call was served. A full build or a patch opens a
  /// `graph.build` / `graph.patch` span in `trace` (when non-null) noting
  /// the graph's `nodes` and `edges` and the index `candidates` visited.
  const SubsumptionGraph& Get(const HierarchicalRelation& relation,
                              GetOutcome* outcome = nullptr,
                              obs::Trace* trace = nullptr);

  /// Source-compatible form for callers written against the former
  /// thread-count parameter (hqlbench/probes.cc); the count is ignored,
  /// since graph builds are serial. Goes when ROADMAP item 1 switches that
  /// probe to Get(relation).
  const SubsumptionGraph& Get(const HierarchicalRelation& relation,
                              size_t /*threads*/) {
    return Get(relation);
  }

  /// True iff a Get for `relation` right now would hit.
  bool Fresh(const HierarchicalRelation& relation) const;

  /// Drops the entry for `name` (no-op if absent). Call when a relation is
  /// dropped or replaced under the same name.
  void Invalidate(const std::string& name);

  /// Drops every entry.
  void Clear();

  size_t size() const;
  Stats stats() const;
  void ResetStats();

  /// Per-entry snapshots, sorted by relation name. Safe concurrently with
  /// Get/Fresh (takes each entry's build latch briefly); follows the
  /// single-writer rule w.r.t. Invalidate/Clear like every other reader.
  std::vector<EntryInfo> Entries() const;

 private:
  struct Entry {
    std::mutex build_mutex;  // serialises rebuilds of this one entry
    uint64_t relation_version = 0;
    std::vector<uint64_t> hierarchy_versions;
    SubsumptionGraph graph;
    size_t patches = 0;   // under build_mutex
    size_t rebuilds = 0;  // under build_mutex
  };

  static std::vector<uint64_t> HierarchyVersions(
      const HierarchicalRelation& relation);
  static bool Matches(const Entry& entry,
                      const HierarchicalRelation& relation);

  /// Attempts to patch a stale entry in place (caller holds its
  /// build_mutex; entry was built at least once). On success the graph and
  /// stamps are current and true is returned. On failure nothing is
  /// modified; `*journal_overflow` is set when the failure was the
  /// relation journal not covering the cached stamp.
  bool TryPatch(Entry& entry, const HierarchicalRelation& relation,
                obs::Trace* trace, bool* journal_overflow);

  mutable std::mutex mutex_;  // guards entries_ (the map) and stats_
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace hirel

#endif  // HIREL_CORE_SUBSUMPTION_CACHE_H_
