// Per-query resource accounting: the QueryStats record, the bounded
// query-history ring behind sys.queries / SHOW QUERIES, and the
// tracked-allocation counter the scan/join/consolidate kernels report
// their transient candidate buffers to.
//
// Ring design: a fixed array of shared_ptr<const QueryStats> slots plus a
// monotone head counter, guarded by a shared_mutex. The executor is the
// only writer (one Append per statement, record built outside the lock);
// readers (sys.queries scans, possibly on other threads once a network
// server exists) Snapshot under a shared lock, so snapshots are mutually
// concurrent and each one is a consistent prefix-free window: exactly the
// last min(head, capacity) records, oldest first. Entries are immutable
// once published, so a snapshot stays valid after the ring moves on.
//
// Allocation tracking is a process-wide pair of relaxed atomics (current,
// peak) updated at kernel granularity — one Add per candidate buffer, not
// per element — so the cost is a handful of atomic ops per plan node. The
// executor resets the peak before each statement and reads it after,
// giving QueryStats::peak_tracked_bytes.

#ifndef HIREL_OBS_QUERY_STATS_H_
#define HIREL_OBS_QUERY_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace hirel {
namespace obs {

/// Everything the executor records about one executed statement.
struct QueryStats {
  uint64_t id = 0;               // 1-based, monotone per executor
  std::string kind;              // trace name: "select", "assert", ...
  std::string statement;         // source text (may be empty)
  bool ok = true;                // false when the statement failed
  uint64_t wall_ns = 0;          // end-to-end statement wall time, >= 1
  uint64_t wait_ns = 0;          // attributed wait time inside wall_ns
                                 // (queue/latch/lock/io; see obs/wait.h)
  uint64_t rows_in = 0;          // tuples scanned by the plan's Scan nodes,
                                 // or the body rows DERIVE's joins visited
  uint64_t rows_out = 0;         // tuples (or rows) the statement produced
  uint64_t subsumption_probes = 0;  // exact; matches EXPLAIN ANALYZE totals
  uint64_t peak_tracked_bytes = 0;  // kernel candidate-buffer peak
  std::string plan_digest;       // structural digest; empty if unplanned
};

/// Bounded history of the last `capacity` queries: one writer, any number
/// of concurrent Snapshot readers.
class QueryHistoryRing {
 public:
  explicit QueryHistoryRing(size_t capacity = 256);

  /// Publishes one record (single writer: the owning executor).
  void Append(QueryStats stats);

  /// The retained records, oldest first — a consistent view: no gaps, no
  /// half-published entries. Safe concurrently with Append.
  std::vector<std::shared_ptr<const QueryStats>> Snapshot() const;

  /// Total records ever appended (>= Snapshot().size()).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  mutable std::shared_mutex mutex_;  // guards slots_; head_ is also atomic
                                     // so total_recorded() never blocks
  std::vector<std::shared_ptr<const QueryStats>> slots_;
  std::atomic<uint64_t> head_{0};
};

// ----- Tracked transient allocations ---------------------------------------

/// Records `bytes` of live kernel scratch; pair with SubTrackedBytes.
void AddTrackedBytes(uint64_t bytes);
void SubTrackedBytes(uint64_t bytes);

/// Resets the peak to the current level (start of a statement).
void ResetTrackedPeak();

/// High-water mark of tracked bytes since the last ResetTrackedPeak.
uint64_t TrackedPeakBytes();

/// Currently tracked bytes (should return to 0 between statements).
uint64_t TrackedCurrentBytes();

/// RAII tracker for one kernel's candidate buffer: Grow as the buffer is
/// sized, release on scope exit.
class ScopedAllocTracking {
 public:
  explicit ScopedAllocTracking(uint64_t bytes = 0) { Grow(bytes); }
  ~ScopedAllocTracking() { SubTrackedBytes(bytes_); }

  ScopedAllocTracking(const ScopedAllocTracking&) = delete;
  ScopedAllocTracking& operator=(const ScopedAllocTracking&) = delete;

  void Grow(uint64_t more) {
    bytes_ += more;
    AddTrackedBytes(more);
  }

 private:
  uint64_t bytes_ = 0;
};

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_QUERY_STATS_H_
