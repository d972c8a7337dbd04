#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/str_util.h"

namespace hirel {
namespace obs {

namespace {

// Anchored once at static initialization, close enough to process start
// for a liveness gauge.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// Resident set size in bytes, or 0 where unavailable.
uint64_t ResidentBytes() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long total_pages = 0, resident_pages = 0;
  int fields = std::fscanf(statm, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return static_cast<uint64_t>(resident_pages) *
         static_cast<uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

uint64_t Histogram::QuantileNs(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    uint64_t in_bucket = bucket(i);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // The overflow bucket has no upper bound; its best point estimate is
    // the observed maximum.
    if (i + 1 == kBuckets) return max_ns();
    uint64_t lower = i == 0 ? 0 : BucketBound(i - 1);
    uint64_t upper = BucketBound(i);
    double within = static_cast<double>(rank - cumulative) /
                    static_cast<double>(in_bucket);
    uint64_t estimate =
        lower + static_cast<uint64_t>(within *
                                      static_cast<double>(upper - lower));
    uint64_t seen_max = max_ns();
    return seen_max > 0 && estimate > seen_max ? seen_max : estimate;
  }
  return max_ns();
}

template <typename T>
T& MetricsRegistry::FindOrCreate(
    std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
    std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(map_mutex_);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::unique_ptr<T>(new T(enabled_.get())))
             .first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return FindOrCreate(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return FindOrCreate(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return FindOrCreate(histograms_, name);
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::VisitForSample(
    const std::function<void(std::string_view, char, uint64_t)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  for (const auto& [name, c] : counters_) fn(name, 'c', c->value());
  for (const auto& [name, g] : gauges_) {
    fn(name, 'g', static_cast<uint64_t>(g->value()));
  }
  for (const auto& [name, h] : histograms_) fn(name, 'h', h->count());
}

void UpdateProcessGauges(MetricsRegistry& registry) {
  auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - kProcessStart);
  registry.gauge("process.uptime_ms")
      .Set(static_cast<int64_t>(uptime.count()));
  uint64_t rss = ResidentBytes();
  if (rss > 0) {
    registry.gauge("process.rss_bytes").Set(static_cast<int64_t>(rss));
  }
}

namespace {

struct HelpEntry {
  std::string help;
  bool is_prefix = false;  // rule names ending in '.' match by prefix
};

std::map<std::string, HelpEntry, std::less<>>& HelpTable() {
  // Seeded with the engine's stable metric families; RegisterMetricHelp
  // lets subsystems and tests add or override entries at runtime.
  static auto* table = new std::map<std::string, HelpEntry, std::less<>>{
      {"query.statements", {"HQL statements executed", false}},
      {"query.errors", {"HQL statements that returned an error", false}},
      {"query.rows_out", {"tuples returned by queries", false}},
      {"query.slow", {"statements exceeding the slow-query threshold",
                      false}},
      {"query.exec_ns", {"per-statement execution latency", false}},
      {"query.", {"query execution activity", true}},
      {"plan.", {"query-plan compilation and rewrite activity", true}},
      {"cache.", {"subsumption-cache activity", true}},
      {"subsumption_cache.", {"subsumption-cache occupancy", true}},
      {"wal.", {"write-ahead-log activity", true}},
      {"snapshot.", {"database snapshot save/load activity", true}},
      {"storage.", {"tuple-store occupancy", true}},
      {"derive.", {"DERIVE fixpoint activity", true}},
      {"log.", {"structured-logger activity", true}},
      {"waits.", {"wait-event time aggregated per wait class", true}},
      {"telemetry.", {"telemetry sampler activity", true}},
      {"alerts.", {"alert-rule evaluation activity", true}},
      {"watchdog.", {"stall-watchdog observations", true}},
      {"process.uptime_ms", {"milliseconds since process start", false}},
      {"process.rss_bytes", {"resident set size in bytes", false}},
  };
  return *table;
}

std::mutex& HelpMutex() {
  static auto* m = new std::mutex;
  return *m;
}

}  // namespace

void RegisterMetricHelp(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(HelpMutex());
  HelpTable()[std::string(name)] =
      HelpEntry{std::string(help), !name.empty() && name.back() == '.'};
}

std::string MetricHelp(std::string_view name) {
  std::lock_guard<std::mutex> lock(HelpMutex());
  const auto& table = HelpTable();
  auto it = table.find(name);
  if (it != table.end() && !it->second.is_prefix) return it->second.help;
  // Longest matching dotted-prefix rule.
  const HelpEntry* best = nullptr;
  size_t best_len = 0;
  for (const auto& [rule, entry] : table) {
    if (!entry.is_prefix) continue;
    if (rule.size() > best_len && name.size() >= rule.size() &&
        name.substr(0, rule.size()) == rule) {
      best = &entry;
      best_len = rule.size();
    }
  }
  if (best != nullptr) return best->help;
  return StrCat("engine metric ", name);
}

}  // namespace obs
}  // namespace hirel
