// Wait-event accounting: where does the engine spend time *blocked*?
//
// Every blocking site (a condition-variable wait, a contended latch, a
// disk flush) registers a WaitEventRegistry::Site once — typically as a
// function-local static — and wraps the blocking region in a ScopedWait.
// Sites aggregate count / total / max plus a fixed exponential latency
// histogram (same bucket bounds as obs::Histogram), and roll up into three
// wait classes:
//
//   latch      short-term structure protection (subsumption-cache locks)
//   lock       longer-held coordination locks (query-history ring)
//   io         disk waits (WAL flush, snapshot save/load)
//
// The disabled path follows the HIREL_LOG contract: one relaxed atomic
// load and a predicted branch, nothing else — cheap enough to leave the
// instrumentation compiled into every site unconditionally (bench_obs
// measures it).
//
// Attribution. The registry keeps a global attributed-wait counter that
// the executor snapshots around statements and the plan walker around
// nodes, giving per-query and per-node wait_ns deltas (the same
// snapshot-diff scheme as tracked allocation peaks).
//
// Capture. StartCapture/StopCapture bound-buffer individual wait spans so
// EXPORT TRACE can draw waiting alongside working on one Chrome-trace
// timeline.

#ifndef HIREL_OBS_WAIT_H_
#define HIREL_OBS_WAIT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hirel {
namespace obs {

enum class WaitClass : uint8_t { kLatch = 0, kLock = 1, kIo = 2 };
inline constexpr size_t kNumWaitClasses = 3;

/// Stable lower_snake name ("latch", "lock", "io") — used as
/// hierarchy class names in sys.waits, so they must stay identifier-like.
const char* WaitClassName(WaitClass cls);

class WaitEventRegistry {
 public:
  static constexpr size_t kHistogramBuckets = 17;  // 16 bounded + overflow
  static constexpr size_t kMaxCapturedWaits = 65536;

  /// One named blocking site. Sites are registered once and never freed;
  /// all counters are relaxed atomics so any thread may Record.
  class Site {
   public:
    const char* name() const { return name_; }
    WaitClass wait_class() const { return cls_; }

    /// Accounts one finished wait of `dur_ns` that began at `start_ns`
    /// (steady-clock ns; used only by span capture). Callers normally go
    /// through ScopedWait.
    void Record(uint64_t start_ns, uint64_t dur_ns);

   private:
    friend class WaitEventRegistry;
    Site(const char* name, WaitClass cls, WaitEventRegistry* owner)
        : name_(name), cls_(cls), owner_(owner) {}

    const char* name_;
    WaitClass cls_;
    WaitEventRegistry* owner_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> total_ns_{0};
    std::atomic<uint64_t> max_ns_{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  };

  /// The engine-wide registry. Wait sites live in code that has no
  /// registry to thread a handle through (cache latches, snapshot I/O), so
  /// unlike MetricsRegistry this one is a process singleton.
  static WaitEventRegistry& Global();

  /// Finds or creates the site; `name` must outlive the registry (string
  /// literals).
  Site& RegisterSite(const char* name, WaitClass cls);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Sum of all recorded wait time; snapshot-diff this around a statement
  /// or plan node for its wait_ns.
  uint64_t attributed_wait_ns() const {
    return attributed_ns_.load(std::memory_order_relaxed);
  }

  struct SiteSnapshot {
    std::string name;
    WaitClass cls = WaitClass::kLatch;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t max_ns = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};
  };
  /// Per-site aggregates, sorted by site name.
  std::vector<SiteSnapshot> Snapshot() const;

  struct ClassTotals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };
  std::array<ClassTotals, kNumWaitClasses> PerClass() const;

  /// Quantile estimate (0.0..1.0) from a site's bucketed latencies —
  /// same bucket bounds and interpolation as Histogram::QuantileNs, so
  /// SHOW WAITS percentiles read like SHOW METRICS ones. Returns 0 for
  /// an empty site; the estimate is clamped to the observed max.
  static uint64_t SiteQuantileNs(const SiteSnapshot& site, double q);

  /// Zeroes every site and the class/attribution totals (sites stay
  /// registered). RESET METRICS calls this.
  void Reset();

  // ---- span capture for EXPORT TRACE ------------------------------------

  struct WaitSpan {
    const char* site;
    WaitClass cls;
    uint64_t start_ns;
    uint64_t dur_ns;
  };

  void StartCapture();
  std::vector<WaitSpan> StopCapture();

 private:
  WaitEventRegistry() = default;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> attributed_ns_{0};
  std::array<std::atomic<uint64_t>, kNumWaitClasses> class_count_{};
  std::array<std::atomic<uint64_t>, kNumWaitClasses> class_ns_{};

  mutable std::mutex sites_mutex_;
  std::vector<Site*> sites_;  // leaked on purpose: sites must never move

  std::atomic<bool> capture_enabled_{false};
  std::mutex capture_mutex_;
  std::vector<WaitSpan> captured_;

  friend class Site;
  void RecordForOwner(const Site& site, uint64_t start_ns, uint64_t dur_ns);
};

/// Steady-clock nanoseconds: the clock ScopedWait stamps waits with.
uint64_t WaitNowNs();

/// RAII wait timer. Construction on the enabled path stamps the clock;
/// destruction records into the site. On the disabled path the
/// constructor is a relaxed load + branch and the destructor a null test.
class ScopedWait {
 public:
  explicit ScopedWait(WaitEventRegistry::Site& site) {
    if (!WaitEventRegistry::Global().enabled()) return;
    site_ = &site;
    start_ns_ = WaitNowNs();
  }
  ~ScopedWait() {
    if (site_ != nullptr) site_->Record(start_ns_, WaitNowNs() - start_ns_);
  }
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  WaitEventRegistry::Site* site_ = nullptr;
  uint64_t start_ns_ = 0;
};

/// Exclusive lock that only opens a wait timer when the fast try_lock
/// fails, so uncontended acquisition costs one extra try_lock and no
/// clock reads.
template <typename Mutex>
class TrackedLock {
 public:
  TrackedLock(Mutex& m, WaitEventRegistry::Site& site) : m_(m) {
    if (m_.try_lock()) return;
    ScopedWait wait(site);
    m_.lock();
  }
  ~TrackedLock() { m_.unlock(); }
  TrackedLock(const TrackedLock&) = delete;
  TrackedLock& operator=(const TrackedLock&) = delete;

 private:
  Mutex& m_;
};

/// Shared-lock counterpart of TrackedLock.
template <typename Mutex>
class TrackedSharedLock {
 public:
  TrackedSharedLock(Mutex& m, WaitEventRegistry::Site& site) : m_(m) {
    if (m_.try_lock_shared()) return;
    ScopedWait wait(site);
    m_.lock_shared();
  }
  ~TrackedSharedLock() { m_.unlock_shared(); }
  TrackedSharedLock(const TrackedSharedLock&) = delete;
  TrackedSharedLock& operator=(const TrackedSharedLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_WAIT_H_
