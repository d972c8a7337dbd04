// Engine-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms.
//
// A MetricsRegistry is owned by the entity whose cost it observes (the
// catalog Database owns the engine's); instrumented code asks the registry
// for a metric by name once and then updates it through the returned
// reference. Two properties keep the observed path honest:
//
//  * Stable handles. Metric objects never move once created, so hot loops
//    can hoist the name lookup out of the loop.
//  * A near-zero-cost disabled path. Every update is a single predictable
//    branch on the registry's enabled flag; code that only *holds a
//    pointer* to a registry (the common pattern in the plan executor and
//    the WAL) pays one null check when observability is off entirely.
//
// Thread-safety contract: metric *values* are relaxed atomics, so updates
// and reads may race freely across threads (the TelemetrySampler thread
// reads while kernels write). The *map structure* is guarded by a
// shared_mutex: registration takes the unique lock, VisitForSample takes
// the shared lock. Iteration through the raw map accessors (exporters,
// sys.metrics) is only safe from the thread that registers metrics — in
// this engine that is the session/executor thread.
//
// The registry does not render itself: SHOW METRICS [JSON] renders the
// sys.metrics relation built from it, and SHOW METRICS PROMETHEUS the
// exposition in obs/export.h.

#ifndef HIREL_OBS_METRICS_H_
#define HIREL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>

namespace hirel {
namespace obs {

/// A monotonically increasing count (queries executed, bytes appended).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (*enabled_) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}

  const bool* enabled_;
  std::atomic<uint64_t> value_{0};
};

/// A value that can move both ways (cache entry count, open transactions).
class Gauge {
 public:
  void Set(int64_t v) {
    if (*enabled_) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (*enabled_) value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}

  const bool* enabled_;
  std::atomic<int64_t> value_{0};
};

/// A latency histogram with fixed exponential buckets. Bucket `i` counts
/// samples below 1024 << i nanoseconds (1 µs, 2 µs, ... 32 ms); the last
/// bucket is the overflow. Fixed buckets mean Record is branch + a few
/// relaxed increments — cheap enough to leave on in production.
class Histogram {
 public:
  static constexpr size_t kBuckets = 17;  // 16 bounded + overflow

  void Record(uint64_t ns) {
    if (!*enabled_) return;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen && !max_ns_.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
    buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound (exclusive, in ns) of bucket `i`; 0 for the overflow.
  static uint64_t BucketBound(size_t i) {
    return i + 1 < kBuckets ? uint64_t{1024} << i : 0;
  }

  /// Estimated q-quantile in ns (q in [0,1]) by cumulative bucket walk
  /// with linear interpolation inside the landing bucket. Samples in the
  /// overflow bucket resolve to max_ns(). Returns 0 on an empty histogram.
  uint64_t QuantileNs(double q) const;

  void Reset();

 private:
  friend class MetricsRegistry;
  explicit Histogram(const bool* enabled) : enabled_(enabled) {}

  static size_t BucketFor(uint64_t ns) {
    for (size_t i = 0; i + 1 < kBuckets; ++i) {
      if (ns < (uint64_t{1024} << i)) return i;
    }
    return kBuckets - 1;
  }

  const bool* enabled_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Owner of named metrics. Lookups create on first use; returned
/// references stay valid for the registry's lifetime (metrics are
/// heap-allocated, and the enabled flag they point at survives registry
/// moves).
class MetricsRegistry {
 public:
  MetricsRegistry() : enabled_(std::make_unique<bool>(true)) {}

  // Moves transfer the metric maps but not the lock; they are only legal
  // while no other thread samples the source (the LOAD path satisfies
  // this by stopping the sampler's registry pointer first).
  MetricsRegistry(MetricsRegistry&& other) noexcept { MoveFrom(other); }
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Disabling freezes every metric of this registry: updates become a
  /// single false branch. Names registered while disabled still render.
  void set_enabled(bool enabled) { *enabled_ = enabled; }
  bool enabled() const { return *enabled_; }

  /// Zeroes every metric (names stay registered).
  void Reset();

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Visits every metric as one sampled value — counters ('c') and gauges
  /// ('g') report their value, histograms ('h') their sample count — in
  /// name order under the structure's shared lock. This is the only map
  /// traversal that is safe from a thread other than the registering one;
  /// the TelemetrySampler thread uses it.
  void VisitForSample(
      const std::function<void(std::string_view name, char kind,
                               uint64_t value)>& fn) const;

  /// Read-only iteration for exporters (obs/export.h). Sorted by name.
  /// Registering-thread only; see the thread-safety contract above.
  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>&
  counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges()
      const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  void MoveFrom(MetricsRegistry& other) {
    std::unique_lock<std::shared_mutex> theirs(other.map_mutex_);
    enabled_ = std::move(other.enabled_);
    counters_ = std::move(other.counters_);
    gauges_ = std::move(other.gauges_);
    histograms_ = std::move(other.histograms_);
  }

  template <typename T>
  T& FindOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                  std::string_view name);

  std::unique_ptr<bool> enabled_;
  mutable std::shared_mutex map_mutex_;  // guards map structure, not values
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Refreshes the process-level liveness gauges on `registry`:
/// `process.uptime_ms` (monotonic, since process start) always, and
/// `process.rss_bytes` where the platform exposes it (/proc/self/statm).
/// Called through SyncEngineGauges on every sys.metrics scan and SHOW
/// METRICS PROMETHEUS, so scrapes and queries both see current values.
void UpdateProcessGauges(MetricsRegistry& registry);

/// Metric-description registry backing the Prometheus exporter's `# HELP`
/// lines. Descriptions are process-wide (metric names are a shared
/// namespace across registries). Lookup resolves an exact name first, then
/// the longest registered dotted-prefix rule ("cache." covers
/// cache.patched), then a generic fallback, so every exported
/// metric has help text.
void RegisterMetricHelp(std::string_view name, std::string_view help);
std::string MetricHelp(std::string_view name);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_METRICS_H_
