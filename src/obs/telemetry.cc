#include "obs/telemetry.h"

#include <algorithm>
#include <utility>

#include "obs/alerts.h"
#include "obs/metrics.h"

namespace hirel {
namespace obs {

TelemetrySampler::TelemetrySampler(size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

uint64_t TelemetrySampler::UptimeMs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TelemetrySampler::SetRegistry(const MetricsRegistry* registry) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  registry_ = registry;
}

void TelemetrySampler::SetIntervalMs(uint64_t ms) {
  if (ms < 1) ms = 1;
  if (ms > 3600000) ms = 3600000;
  interval_ms_.store(ms, std::memory_order_relaxed);
  // Nudge a sleeping thread so a shorter interval applies promptly.
  stop_cv_.notify_all();
}

void TelemetrySampler::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void TelemetrySampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    stop_cv_.notify_all();
    to_join = std::move(thread_);
  }
  to_join.join();
  running_.store(false, std::memory_order_relaxed);
}

void TelemetrySampler::Loop() {
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stop_requested_) {
    auto interval = std::chrono::milliseconds(
        interval_ms_.load(std::memory_order_relaxed));
    if (stop_cv_.wait_for(lock, interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void TelemetrySampler::Tick() {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (registry_ == nullptr) return;
    uint64_t seq = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t now_ms = UptimeMs();
    uint64_t epoch_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    registry_->VisitForSample([&](std::string_view name, char kind,
                                  uint64_t value) {
      auto it = series_.find(name);
      if (it == series_.end()) {
        it = series_.emplace(std::string(name), Series{}).first;
      }
      Series& s = it->second;
      s.kind = kind;
      ++s.total_samples;
      s.ring.push_back(Sample{seq, now_ms, epoch_ms, value});
      while (s.ring.size() > capacity_) s.ring.pop_front();
    });
  }
  // Alert evaluation runs with the sampler lock released: OnTick reads
  // back through Latest(), which takes the shared lock.
  if (AlertManager* alerts = alerts_.load(std::memory_order_acquire)) {
    alerts->OnTick(*this);
  }
}

std::vector<TelemetrySampler::SeriesSnapshot> TelemetrySampler::Snapshot()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<SeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    SeriesSnapshot snap;
    snap.name = name;
    snap.kind = s.kind;
    snap.total_samples = s.total_samples;
    snap.samples.assign(s.ring.begin(), s.ring.end());
    out.push_back(std::move(snap));
  }
  return out;  // map iteration is already name-sorted
}

bool TelemetrySampler::Latest(std::string_view name, Sample* out) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end() || it->second.ring.empty()) return false;
  *out = it->second.ring.back();
  return true;
}

void TelemetrySampler::Clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  series_.clear();
  ticks_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace hirel
