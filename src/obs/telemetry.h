// Always-on telemetry history: a background sampler that snapshots a
// MetricsRegistry every N ms into per-metric bounded ring time-series.
//
// `SET TELEMETRY ON` starts the sampler thread; when it is OFF there is
// no thread at all, so the query path pays nothing. Each tick visits the
// registry under its shared structure lock (values are relaxed atomics)
// and appends one Sample per metric — counters and gauges record their
// value, histograms their sample count — to a bounded ring (oldest
// evicted).
//
// Tests call Tick() directly for a deterministic no-sleep manual mode;
// the thread body is exactly a timed loop around Tick().
//
// Exposure: the sys.metrics_history virtual relation (what SHOW
// TELEMETRY [JSON] renders) explodes the rings into (name, seq, ts_ms,
// epoch_ms, value) rows with `name` interned into the dotted metric-name
// hierarchy, so `WHERE name = ALL cache` selects a whole subtree's history
// by subsumption.

#ifndef HIREL_OBS_TELEMETRY_H_
#define HIREL_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace hirel {
namespace obs {

class AlertManager;
class MetricsRegistry;

class TelemetrySampler {
 public:
  struct Sample {
    uint64_t seq;       // tick number, 1-based, monotonically increasing
    uint64_t ts_ms;     // milliseconds since the sampler was constructed
    uint64_t epoch_ms;  // unix wall-clock milliseconds at the tick
    uint64_t value;
  };

  struct SeriesSnapshot {
    std::string name;
    char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram (count)
    uint64_t total_samples = 0;  // ever taken, including evicted
    std::vector<Sample> samples;  // ring contents, oldest first
  };

  explicit TelemetrySampler(size_t ring_capacity = 240);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Points the sampler at a registry (nullptr detaches). Thread-safe;
  /// the LOAD path re-points it when the catalog is replaced.
  void SetRegistry(const MetricsRegistry* registry);

  /// Clamped to [1, 3600000]. Takes effect on the next tick.
  void SetIntervalMs(uint64_t ms);
  uint64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// Starts/stops the background thread. Both are idempotent; Stop joins.
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Takes one sample immediately (the thread body calls this too).
  /// Deterministic manual mode for tests: no thread, no sleeps.
  void Tick();

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  size_t ring_capacity() const { return capacity_; }

  /// Copies every series, sorted by name. Safe concurrent with Tick().
  std::vector<SeriesSnapshot> Snapshot() const;

  /// The most recent sample of one series, if any. Safe concurrent with
  /// Tick(); this is what alert evaluation reads per rule.
  bool Latest(std::string_view name, Sample* out) const;

  /// Attaches the alert manager: after every successful tick the sampler
  /// calls manager->OnTick(*this) with its own lock released. Pass
  /// nullptr to detach. The manager must outlive the sampler thread.
  void SetAlertManager(AlertManager* manager) {
    alerts_.store(manager, std::memory_order_release);
  }

  /// Drops all series and resets the tick counter (capacity/interval and
  /// running state are untouched).
  void Clear();

 private:
  struct Series {
    char kind = 'c';
    uint64_t total_samples = 0;
    std::deque<Sample> ring;
  };

  void Loop();
  uint64_t UptimeMs() const;

  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::shared_mutex mutex_;  // guards registry_ + series_
  const MetricsRegistry* registry_ = nullptr;
  std::map<std::string, Series, std::less<>> series_;

  std::atomic<AlertManager*> alerts_{nullptr};

  std::atomic<uint64_t> interval_ms_{100};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<bool> running_{false};

  std::mutex thread_mutex_;  // guards stop_requested_ + thread_
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_TELEMETRY_H_
