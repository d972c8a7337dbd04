#include "core/subsumption_cache.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/str_util.h"
#include "obs/log.h"
#include "obs/wait.h"

namespace hirel {

namespace {

// The map latch protects entry lookup and stats; the per-entry build
// latch serializes same-relation validate/rebuild. Both are on the
// concurrent Get path, so contention here is wait-class latch.
obs::WaitEventRegistry::Site& MapLatchSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite("cache.map_latch",
                                                    obs::WaitClass::kLatch);
  return site;
}

obs::WaitEventRegistry::Site& EntryLatchSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite("cache.entry_latch",
                                                    obs::WaitClass::kLatch);
  return site;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Notes a built or patched graph's size on its span.
void NoteGraph(obs::Trace::Scope& span, const SubsumptionGraph& graph,
               size_t candidates) {
  size_t edges = 0;
  for (const auto& list : graph.successors) edges += list.size();
  span.Note("nodes", graph.nodes.size());
  span.Note("edges", edges);
  span.Note("candidates", candidates);
}

}  // namespace

std::vector<uint64_t> SubsumptionCache::HierarchyVersions(
    const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<uint64_t> versions;
  versions.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    versions.push_back(schema.hierarchy(i)->version());
  }
  return versions;
}

bool SubsumptionCache::Matches(const Entry& entry,
                               const HierarchicalRelation& relation) {
  return entry.relation_version == relation.version() &&
         entry.hierarchy_versions == HierarchyVersions(relation);
}

const SubsumptionGraph& SubsumptionCache::Get(
    const HierarchicalRelation& relation, GetOutcome* outcome,
    obs::Trace* trace) {
  Entry* entry;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    std::unique_ptr<Entry>& slot = entries_[relation.name()];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Build (or validate) outside the map lock so misses on different
  // relations proceed in parallel; the per-entry latch coalesces
  // same-name rebuilds and makes the version check race-free.
  obs::TrackedLock<std::mutex> build_lock(entry->build_mutex,
                                          EntryLatchSite());
  if (entry->relation_version != 0 && Matches(*entry, relation)) {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    ++stats_.hits;
    if (outcome != nullptr) *outcome = GetOutcome::kHit;
    return entry->graph;
  }
  bool journal_overflow = false;
  if (entry->relation_version != 0 &&
      TryPatch(*entry, relation, trace, &journal_overflow)) {
    ++entry->patches;
    {
      obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
      ++stats_.misses;
      ++stats_.patches;
    }
    if (outcome != nullptr) *outcome = GetOutcome::kPatched;
    HIREL_LOG(obs::LogLevel::kDebug, "subsumption_cache", "patch",
              {{"relation", relation.name()}});
    return entry->graph;
  }
  uint64_t ns;
  {
    obs::Trace::Scope span(trace, "graph.build");
    auto start = std::chrono::steady_clock::now();
    size_t candidates = 0;
    entry->graph = BuildSubsumptionGraph(relation, &candidates);
    ns = ElapsedNs(start);
    NoteGraph(span, entry->graph, candidates);
  }
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    ++stats_.misses;
    ++stats_.rebuilds;
    if (journal_overflow) ++stats_.journal_overflows;
    stats_.build_ns += ns;
  }
  ++entry->rebuilds;
  entry->relation_version = relation.version();
  entry->hierarchy_versions = HierarchyVersions(relation);
  if (outcome != nullptr) *outcome = GetOutcome::kRebuilt;
  return entry->graph;
}

bool SubsumptionCache::TryPatch(Entry& entry,
                                const HierarchicalRelation& relation,
                                obs::Trace* trace, bool* journal_overflow) {
  const Schema& schema = relation.schema();
  if (entry.hierarchy_versions.size() != schema.size()) return false;

  // Hierarchy edits since the cached stamps: collect per-attribute dirty
  // node sets. Any tuple whose item touches a dirty node must be
  // re-placed (both endpoints of every changed binding pair are in the
  // affected frontier, so re-placing all touching tuples is exact).
  std::vector<std::unordered_set<NodeId>> dirty(schema.size());
  bool any_dirty = false;
  for (size_t i = 0; i < schema.size(); ++i) {
    const Hierarchy* h = schema.hierarchy(i);
    if (h->version() == entry.hierarchy_versions[i]) continue;
    std::vector<NodeId> affected;
    if (!h->AffectedSince(entry.hierarchy_versions[i], &affected)) {
      return false;  // frontier unknown or too large: rebuild
    }
    for (NodeId n : affected) dirty[i].insert(n);
    any_dirty = any_dirty || !dirty[i].empty();
  }

  // Tuple mutations since the cached stamp, from the relation journal.
  std::optional<std::vector<MutationJournal::Record>> records =
      relation.journal().Since(entry.relation_version);
  if (!records.has_value()) {
    *journal_overflow = true;
    return false;
  }

  // Membership of the cached graph by tuple id. A live tuple is a graph
  // node or a journalled insert, so it falls below `bound` unless the
  // bookkeeping is broken, which the size check further down catches.
  size_t bound = 0;
  for (TupleId id : entry.graph.nodes) bound = std::max<size_t>(bound, id + 1);
  for (const MutationJournal::Record& r : *records) {
    bound = std::max<size_t>(bound, r.id + 1);
  }
  std::vector<char> in_graph(bound, 0);
  for (TupleId id : entry.graph.nodes) in_graph[id] = 1;
  std::unordered_set<TupleId> removed, added;
  for (const MutationJournal::Record& r : *records) {
    switch (r.kind) {
      case MutationJournal::Record::Kind::kInsert:
        added.insert(r.id);
        break;
      case MutationJournal::Record::Kind::kErase:
        // Insert-then-erase since the cached stamp cancels out; an erase
        // of a tuple the graph holds is a removal.
        if (added.erase(r.id) == 0 && in_graph[r.id]) {
          removed.insert(r.id);
        }
        break;
      case MutationJournal::Record::Kind::kTruth:
        // Truth values are not part of the graph's topology (consumers
        // read them live from the relation), so nothing to patch.
        break;
    }
  }

  // Fold in tuples dirtied by hierarchy edits: re-place each live one.
  if (any_dirty) {
    for (TupleId id : relation.TupleIds()) {
      bool is_dirty = false;
      for (size_t i = 0; i < schema.size() && !is_dirty; ++i) {
        if (!dirty[i].empty() &&
            dirty[i].contains(relation.Component(id, i))) {
          is_dirty = true;
        }
      }
      if (!is_dirty) continue;
      if (id < bound && in_graph[id] && !removed.contains(id)) {
        removed.insert(id);
        added.insert(id);
      }
      // A dirty tuple not in the graph was inserted since the stamp and
      // is already in `added`.
    }
  }

  // Cheap precondition check: the patched node set must be exactly the
  // live set. A mismatch means bookkeeping went wrong somewhere — rebuild
  // rather than risk a wrong graph.
  if (entry.graph.nodes.size() - removed.size() + added.size() !=
      relation.size()) {
    return false;
  }

  // Cost heuristic: a patch copies and re-emits the whole graph and then
  // re-places each changed tuple, so past ~n/4 changed tuples a rebuild,
  // which scans every tuple once, is no dearer.
  size_t work = removed.size() + added.size();
  size_t n = entry.graph.nodes.size();
  if (work > std::max<size_t>(16, n / 4)) return false;

  if (work > 0) {
    SubsumptionDelta delta;
    delta.remove.assign(removed.begin(), removed.end());
    delta.add.assign(added.begin(), added.end());
    std::sort(delta.remove.begin(), delta.remove.end());
    std::sort(delta.add.begin(), delta.add.end());
    obs::Trace::Scope span(trace, "graph.patch");
    auto start = std::chrono::steady_clock::now();
    size_t candidates = 0;
    PatchSubsumptionGraph(relation, delta, &entry.graph, &candidates);
    uint64_t ns = ElapsedNs(start);
    NoteGraph(span, entry.graph, candidates);
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    stats_.patch_ns += ns;
  }
  // work == 0: every journalled mutation cancelled out topologically
  // (truth flips, insert-then-erase, edits touching no asserted item) —
  // the graph is already current, only the stamps move.
  entry.relation_version = relation.version();
  entry.hierarchy_versions = HierarchyVersions(relation);
  return true;
}

bool SubsumptionCache::Fresh(const HierarchicalRelation& relation) const {
  Entry* entry = nullptr;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    auto it = entries_.find(relation.name());
    if (it == entries_.end()) return false;
    entry = it->second.get();
  }
  obs::TrackedLock<std::mutex> build_lock(entry->build_mutex,
                                          EntryLatchSite());
  return entry->relation_version != 0 && Matches(*entry, relation);
}

void SubsumptionCache::Invalidate(const std::string& name) {
  bool erased;
  {
    obs::TrackedLock<std::mutex> lock(mutex_, MapLatchSite());
    erased = entries_.erase(name) > 0;
    if (erased) ++stats_.invalidations;
  }
  if (erased) {
    HIREL_LOG(obs::LogLevel::kDebug, "subsumption_cache", "invalidate",
              {{"relation", name}});
  }
}

void SubsumptionCache::Clear() {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = entries_.size();
    stats_.invalidations += dropped;
    entries_.clear();
  }
  HIREL_LOG(obs::LogLevel::kDebug, "subsumption_cache", "clear",
            {{"entries", StrCat(dropped)}});
}

size_t SubsumptionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

SubsumptionCache::Stats SubsumptionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<SubsumptionCache::EntryInfo> SubsumptionCache::Entries() const {
  std::vector<std::pair<std::string, Entry*>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      snapshot.emplace_back(name, entry.get());
    }
  }
  std::sort(snapshot.begin(), snapshot.end());
  std::vector<EntryInfo> out;
  out.reserve(snapshot.size());
  for (auto& [name, entry] : snapshot) {
    std::lock_guard<std::mutex> build_lock(entry->build_mutex);
    EntryInfo info;
    info.relation = std::move(name);
    info.relation_version = entry->relation_version;
    info.graph_nodes = entry->graph.nodes.size();
    info.patches = entry->patches;
    info.rebuilds = entry->rebuilds;
    out.push_back(std::move(info));
  }
  return out;
}

void SubsumptionCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace hirel
