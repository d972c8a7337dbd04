#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/str_util.h"
#include "obs/log.h"
#include "obs/wait.h"

namespace hirel {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void UpdateMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < value &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Wait sites. A worker idling for work belongs to no query, so the
// task-queue site is unattributed; the caller's join and the steal scan
// happen on behalf of the running statement and are attributed.
obs::WaitEventRegistry::Site& TaskQueueWaitSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite(
          "pool.task_queue", obs::WaitClass::kCpuQueue, /*attributed=*/false);
  return site;
}

obs::WaitEventRegistry::Site& RegionJoinWaitSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite(
          "pool.region_join", obs::WaitClass::kCpuQueue);
  return site;
}

obs::WaitEventRegistry::Site& StealScanWaitSite() {
  static obs::WaitEventRegistry::Site& site =
      obs::WaitEventRegistry::Global().RegisterSite(
          "pool.steal_scan", obs::WaitClass::kCpuQueue);
  return site;
}

}  // namespace

/// One in-flight ParallelFor call. Lives on the caller's stack; lifetime is
/// governed by `pending`, which counts unfinished chunks plus active
/// participants (caller included). Workers join only while the region is in
/// the pool's active list (under the pool mutex), and the caller delists
/// the region before releasing its own participation. Every participant
/// releases its share of `pending` while holding `done_mutex`, so once the
/// caller observes `pending == 0` under that mutex, no thread will touch
/// the region again.
struct ThreadPool::Region {
  const std::function<Status(size_t, size_t, size_t)>* fn = nullptr;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  size_t spans = 0;  // participant spans chunks are pre-assigned to

  uint64_t ordinal = 0;  // region sequence number, for captured chunk spans

  std::unique_ptr<std::atomic<bool>[]> claimed;  // one flag per chunk
  std::atomic<size_t> unclaimed{0};  // fast "is there work" check
  std::atomic<size_t> next_slot{1};  // slot 0 is the caller
  std::atomic<size_t> pending{0};    // unfinished chunks + participants

  std::vector<Status> errors;  // per-chunk; only failing chunks are written

  std::mutex done_mutex;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(size_t workers) {
  thread_busy_ns_ = std::make_unique<std::atomic<uint64_t>[]>(workers + 1);
  for (size_t i = 0; i <= workers; ++i) {
    thread_busy_ns_[i].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  HIREL_LOG(obs::LogLevel::kInfo, "pool", "start",
            {{"workers", StrCat(workers)}});
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: workers must never be joined during static
  // destruction, where other translation units may already be gone. The
  // pointer stays reachable, so leak checkers do not flag it.
  static ThreadPool* pool = [] {
    size_t hw = std::thread::hardware_concurrency();
    // At least 7 workers so thread counts up to 8 (the bench and test
    // range) are genuinely concurrent even on small hosts; idle workers
    // just sleep on the condition variable.
    return new ThreadPool(std::max<size_t>(hw, 7));
  }();
  return *pool;
}

size_t ThreadPool::EffectiveThreads(size_t requested) {
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  size_t threads = requested == 0 ? hw : requested;
  return std::min(threads, Shared().num_workers() + 1);
}

ThreadPool::Stats ThreadPool::GetStats() const {
  Stats s;
  s.regions = stat_regions_.load(std::memory_order_relaxed);
  s.tasks_run = stat_tasks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.busy_ns = stat_busy_ns_.load(std::memory_order_relaxed);
  s.max_queue_depth = stat_max_queue_.load(std::memory_order_relaxed);
  s.workers = workers_.size();
  s.per_thread_busy_ns.reserve(workers_.size() + 1);
  for (size_t i = 0; i <= workers_.size(); ++i) {
    s.per_thread_busy_ns.push_back(
        thread_busy_ns_[i].load(std::memory_order_relaxed));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Region* r : active_) {
      s.queue_depth += r->unclaimed.load(std::memory_order_relaxed);
    }
  }
  return s;
}

void ThreadPool::ResetStats() {
  stat_regions_.store(0, std::memory_order_relaxed);
  stat_tasks_.store(0, std::memory_order_relaxed);
  stat_steals_.store(0, std::memory_order_relaxed);
  stat_busy_ns_.store(0, std::memory_order_relaxed);
  stat_max_queue_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i <= workers_.size(); ++i) {
    thread_busy_ns_[i].store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::StartChunkCapture() {
  {
    std::lock_guard<std::mutex> lock(capture_mutex_);
    captured_.clear();
  }
  capture_enabled_.store(true, std::memory_order_relaxed);
}

std::vector<ThreadPool::ChunkSpan> ThreadPool::StopChunkCapture() {
  capture_enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(capture_mutex_);
  std::vector<ChunkSpan> spans;
  spans.swap(captured_);
  return spans;
}

size_t ThreadPool::Participate(Region& region, size_t slot,
                               size_t thread_index) {
  const size_t chunks = region.num_chunks;
  const size_t spans = region.spans;
  const size_t span = slot % spans;
  const size_t lo = span * chunks / spans;
  const size_t hi = (span + 1) * chunks / spans;

  size_t ran = 0;
  auto run = [&](size_t c, bool stolen) {
    region.unclaimed.fetch_sub(1, std::memory_order_relaxed);
    const size_t begin = c * region.chunk_size;
    const size_t end = std::min(region.n, begin + region.chunk_size);
    const uint64_t t0 = NowNs();
    Status status = (*region.fn)(c, begin, end);
    const uint64_t dur = NowNs() - t0;
    stat_busy_ns_.fetch_add(dur, std::memory_order_relaxed);
    thread_busy_ns_[thread_index].fetch_add(dur, std::memory_order_relaxed);
    stat_tasks_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) stat_steals_.fetch_add(1, std::memory_order_relaxed);
    if (capture_enabled_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(capture_mutex_);
      if (captured_.size() < kMaxCapturedChunks) {
        captured_.push_back(
            ChunkSpan{thread_index, t0, dur, c, region.ordinal});
      }
    }
    if (!status.ok()) region.errors[c] = std::move(status);
    ++ran;
  };

  for (size_t c = lo; c < hi; ++c) {
    if (!region.claimed[c].exchange(true, std::memory_order_relaxed)) {
      run(c, /*stolen=*/false);
    }
  }
  // The steal scan is cpu-queue wait: time spent hunting other spans for
  // unclaimed chunks, excluding the chunk bodies themselves. Accumulated
  // across the scan and recorded once so histogram counts stay per-scan,
  // not per-probe.
  const bool waits_on = obs::WaitEventRegistry::Global().enabled();
  uint64_t scan_ns = 0;
  uint64_t scan_t0 = waits_on ? NowNs() : 0;
  const uint64_t scan_start = scan_t0;
  for (size_t c = 0; c < chunks; ++c) {
    if (region.unclaimed.load(std::memory_order_relaxed) == 0) break;
    if (!region.claimed[c].exchange(true, std::memory_order_relaxed)) {
      if (waits_on) scan_ns += NowNs() - scan_t0;
      run(c, /*stolen=*/slot != 0 || c < lo || c >= hi);
      if (waits_on) scan_t0 = NowNs();
    }
  }
  if (waits_on) {
    scan_ns += NowNs() - scan_t0;
    if (scan_ns > 0) StealScanWaitSite().Record(scan_start, scan_ns);
  }
  return ran;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  // Captured wait spans from this thread land on the same trace track as
  // its captured chunks (track 0 is the caller).
  obs::WaitEventRegistry::SetThreadTrack(1 + worker_index);
  while (true) {
    Region* region = nullptr;
    size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto runnable = [&] {
        if (stop_) return true;
        for (Region* r : active_) {
          if (r->unclaimed.load(std::memory_order_relaxed) > 0) return true;
        }
        return false;
      };
      if (!runnable()) {
        // Only genuine blocking opens a wait timer; an already-satisfied
        // predicate costs nothing.
        obs::ScopedWait wait(TaskQueueWaitSite());
        work_cv_.wait(lock, runnable);
      }
      if (stop_) return;
      for (Region* r : active_) {
        if (r->unclaimed.load(std::memory_order_relaxed) > 0) {
          region = r;
          break;
        }
      }
      if (region == nullptr) continue;
      // Joining under the mutex orders this increment before the caller's
      // delisting, so the caller cannot observe pending == 0 early.
      region->pending.fetch_add(1, std::memory_order_relaxed);
      slot = region->next_slot.fetch_add(1, std::memory_order_relaxed);
    }
    const size_t ran = Participate(*region, slot, /*thread_index=*/1 + worker_index);
    const size_t delta = ran + 1;
    // Decrement under done_mutex: the caller may destroy the region as soon
    // as it sees pending == 0, so this must be the worker's last access.
    std::lock_guard<std::mutex> lock(region->done_mutex);
    if (region->pending.fetch_sub(delta, std::memory_order_acq_rel) == delta) {
      region->done_cv.notify_all();
    }
  }
}

Status ThreadPool::ParallelFor(
    size_t n, const ParallelOptions& options,
    const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn) {
  if (n == 0) return Status::OK();
  const size_t threads =
      std::min(options.threads == 0
                   ? std::max<size_t>(1, std::thread::hardware_concurrency())
                   : options.threads,
               num_workers() + 1);
  const size_t grain = std::max<size_t>(1, options.grain);
  // ~4 chunks per thread bounds the load imbalance from uneven chunk costs
  // at ~25% while keeping claim traffic low.
  const size_t chunk_size =
      std::max(grain, (n + 4 * threads - 1) / (4 * threads));
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  if (threads <= 1 || num_chunks <= 1) return fn(0, 0, n);

  Region region;
  region.fn = &fn;
  region.n = n;
  region.chunk_size = chunk_size;
  region.num_chunks = num_chunks;
  region.spans = std::min(threads, num_chunks);
  region.claimed = std::make_unique<std::atomic<bool>[]>(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    region.claimed[c].store(false, std::memory_order_relaxed);
  }
  region.unclaimed.store(num_chunks, std::memory_order_relaxed);
  region.errors.resize(num_chunks);
  // Pending = chunks to finish + active participants (the caller, plus
  // each worker while it is inside Participate).
  region.pending.store(num_chunks + 1, std::memory_order_relaxed);

  region.ordinal = stat_regions_.fetch_add(1, std::memory_order_relaxed) + 1;
  UpdateMax(stat_max_queue_, num_chunks);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.push_back(&region);
  }
  work_cv_.notify_all();

  const size_t ran = Participate(region, /*slot=*/0, /*thread_index=*/0);

  {
    // Delist before releasing our own participation: afterwards no new
    // worker can join, so pending == 0 means the region is quiescent.
    std::lock_guard<std::mutex> lock(mutex_);
    active_.erase(std::find(active_.begin(), active_.end(), &region));
  }
  {
    // Under done_mutex, like the workers' decrements: a worker that has
    // released its share may still be inside this mutex, so the region
    // must not die until the caller has acquired it.
    std::unique_lock<std::mutex> lock(region.done_mutex);
    if (region.pending.fetch_sub(ran + 1, std::memory_order_acq_rel) !=
        ran + 1) {
      obs::ScopedWait wait(RegionJoinWaitSite());
      region.done_cv.wait(lock, [&] {
        return region.pending.load(std::memory_order_acquire) == 0;
      });
    }
  }

  for (size_t c = 0; c < num_chunks; ++c) {
    if (!region.errors[c].ok()) return region.errors[c];
  }
  return Status::OK();
}

Status ParallelFor(
    size_t n, const ParallelOptions& options,
    const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn) {
  return ThreadPool::Shared().ParallelFor(n, options, fn);
}

}  // namespace hirel
