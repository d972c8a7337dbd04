// ThreadPool + ParallelFor: the shared work-stealing substrate under every
// parallel kernel (consolidate, explicate, select/project/join/setops,
// DERIVE fixpoint rounds).
//
// Design goals, in order:
//  1. Determinism. ParallelFor splits [0, n) into fixed contiguous chunks
//     whose boundaries depend only on (n, grain, thread count) — never on
//     scheduling. Kernels write per-item (or per-chunk) outputs into
//     preallocated slots and merge them in index order on the calling
//     thread, so results are byte-identical to serial execution.
//  2. No deadlocks. The calling thread always participates in its own
//     region, so progress never depends on a pool worker being free.
//  3. Exact accounting. Errors are reported deterministically (the lowest
//     chunk index wins) and the pool keeps atomic counters (tasks, steals,
//     busy time) that the HQL executor syncs into MetricsRegistry gauges.
//
// Scheduling is work-stealing over chunk ownership: each participant is
// assigned a contiguous span of chunks and claims chunks in its span first
// (good locality, zero contention when load is even), then scans the whole
// region for unclaimed chunks (a steal) once its span is exhausted.

#ifndef HIREL_COMMON_THREAD_POOL_H_
#define HIREL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace hirel {

/// Degree-of-parallelism request for one ParallelFor region.
struct ParallelOptions {
  /// Number of participating threads (including the caller). 1 runs the
  /// whole range serially on the caller; 0 means one per hardware thread.
  /// Values above the pool's capacity are clamped to workers + 1.
  size_t threads = 1;

  /// Minimum items per chunk. Chunk boundaries are a pure function of
  /// (n, grain, threads), so partitioning is deterministic.
  size_t grain = 1;
};

/// A fixed set of worker threads executing ParallelFor regions.
///
/// Workers idle on a condition variable when no region has unclaimed
/// chunks; an idle pool costs nothing but its stacks. One process-wide
/// instance (`Shared()`) backs every kernel; independent instances can be
/// constructed for tests.
class ThreadPool {
 public:
  /// Monotonic pool counters. All values are totals since construction (or
  /// the last ResetStats), taken atomically but not as one snapshot.
  struct Stats {
    uint64_t regions = 0;    ///< ParallelFor calls that went parallel.
    uint64_t tasks_run = 0;  ///< Chunks executed (by workers or callers).
    uint64_t steals = 0;     ///< Chunks claimed outside the owner's span.
    uint64_t busy_ns = 0;    ///< Total wall time spent inside chunk bodies.
    uint64_t max_queue_depth = 0;  ///< Largest chunk count of any region.
    uint64_t queue_depth = 0;  ///< Unclaimed chunks across active regions now.
    size_t workers = 0;      ///< Worker threads owned by the pool.
    /// Wall time inside chunk bodies per thread: [0] is caller threads
    /// (every ParallelFor caller participates), [1 + i] is pool worker i.
    std::vector<uint64_t> per_thread_busy_ns;
  };

  /// One chunk execution, recorded while chunk capture is on. `worker` is
  /// 0 for the calling thread and 1 + i for pool worker i; `start_ns` is a
  /// steady-clock stamp on the same clock as Trace::epoch_ns.
  struct ChunkSpan {
    size_t worker = 0;
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    size_t chunk = 0;
    uint64_t region = 0;  ///< ordinal of the owning ParallelFor region
  };

  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by every kernel. Created on first use and
  /// intentionally never destroyed (workers may outlive static teardown
  /// order otherwise). Sized so that the determinism tests' largest thread
  /// count is genuinely concurrent even on small hosts.
  static ThreadPool& Shared();

  size_t num_workers() const { return workers_.size(); }

  /// Resolves a ParallelOptions::threads request against the shared pool:
  /// 0 becomes one per hardware thread; the result is clamped to
  /// [1, Shared().num_workers() + 1].
  static size_t EffectiveThreads(size_t requested);

  Stats GetStats() const;
  void ResetStats();

  /// Starts recording one ChunkSpan per executed chunk (clearing any
  /// previous capture). Capture is bounded (kMaxCapturedChunks) so a
  /// runaway query cannot grow memory without limit; the HQL executor
  /// turns capture on around each script so EXPORT TRACE can place pool
  /// work on per-worker tracks. Off (the default) costs one predicted
  /// branch per chunk.
  void StartChunkCapture();

  /// Stops capture and returns the recorded spans in claim order.
  std::vector<ChunkSpan> StopChunkCapture();

  static constexpr size_t kMaxCapturedChunks = 65536;

  /// Runs `fn(chunk, begin, end)` over [0, n) split into contiguous chunks.
  ///
  /// Blocks until every chunk has run. The caller participates, so the
  /// call completes even when all workers are busy elsewhere. With
  /// options.threads <= 1 (or a single chunk) `fn(0, 0, n)` runs inline.
  ///
  /// `fn` runs concurrently on multiple threads: it must only write state
  /// disjoint per chunk (e.g. output slots indexed by item). If several
  /// chunks fail, the Status of the lowest-indexed failing chunk is
  /// returned — same winner regardless of scheduling.
  Status ParallelFor(
      size_t n, const ParallelOptions& options,
      const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn);

 private:
  struct Region;

  void WorkerLoop(size_t worker_index);

  /// Claims and runs chunks of `region` as participant `slot`, attributing
  /// busy time to `thread_index` (0 = caller, 1 + i = worker i); returns
  /// the number of chunks this participant executed.
  size_t Participate(Region& region, size_t slot, size_t thread_index);

  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;         // guards active_ and stop_
  std::condition_variable work_cv_;  // workers wait here for regions
  std::deque<Region*> active_;       // regions that may have unclaimed work
  bool stop_ = false;

  std::atomic<uint64_t> stat_regions_{0};
  std::atomic<uint64_t> stat_tasks_{0};
  std::atomic<uint64_t> stat_steals_{0};
  std::atomic<uint64_t> stat_busy_ns_{0};
  std::atomic<uint64_t> stat_max_queue_{0};
  // Per-thread busy time: [0] callers, [1 + i] worker i. Sized once in the
  // constructor, so lock-free updates need no bounds growth.
  std::unique_ptr<std::atomic<uint64_t>[]> thread_busy_ns_;

  std::atomic<bool> capture_enabled_{false};
  std::mutex capture_mutex_;  // guards captured_
  std::vector<ChunkSpan> captured_;
};

/// Convenience wrapper over ThreadPool::Shared().ParallelFor.
Status ParallelFor(
    size_t n, const ParallelOptions& options,
    const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn);

}  // namespace hirel

#endif  // HIREL_COMMON_THREAD_POOL_H_
