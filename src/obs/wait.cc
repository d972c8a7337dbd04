#include "obs/wait.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace hirel {
namespace obs {

const char* WaitClassName(WaitClass cls) {
  switch (cls) {
    case WaitClass::kLatch:
      return "latch";
    case WaitClass::kLock:
      return "lock";
    case WaitClass::kIo:
      return "io";
  }
  return "unknown";
}

uint64_t WaitNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

WaitEventRegistry& WaitEventRegistry::Global() {
  static auto* registry = new WaitEventRegistry;
  return *registry;
}

WaitEventRegistry::Site& WaitEventRegistry::RegisterSite(const char* name,
                                                         WaitClass cls) {
  std::lock_guard<std::mutex> lock(sites_mutex_);
  for (Site* site : sites_) {
    if (std::strcmp(site->name(), name) == 0) return *site;
  }
  sites_.push_back(new Site(name, cls, this));
  return *sites_.back();
}

void WaitEventRegistry::Site::Record(uint64_t start_ns, uint64_t dur_ns) {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(dur_ns, std::memory_order_relaxed);
  uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (dur_ns > seen && !max_ns_.compare_exchange_weak(
                              seen, dur_ns, std::memory_order_relaxed)) {
  }
  size_t bucket = 0;
  while (bucket + 1 < kHistogramBuckets &&
         dur_ns >= (uint64_t{1024} << bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  owner_->RecordForOwner(*this, start_ns, dur_ns);
}

void WaitEventRegistry::RecordForOwner(const Site& site, uint64_t start_ns,
                                       uint64_t dur_ns) {
  size_t cls = static_cast<size_t>(site.cls_);
  class_count_[cls].fetch_add(1, std::memory_order_relaxed);
  class_ns_[cls].fetch_add(dur_ns, std::memory_order_relaxed);
  attributed_ns_.fetch_add(dur_ns, std::memory_order_relaxed);
  if (capture_enabled_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(capture_mutex_);
    if (captured_.size() < kMaxCapturedWaits) {
      captured_.push_back(
          WaitSpan{site.name_, site.cls_, start_ns, dur_ns});
    }
  }
}

std::vector<WaitEventRegistry::SiteSnapshot> WaitEventRegistry::Snapshot()
    const {
  std::vector<SiteSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(sites_mutex_);
    out.reserve(sites_.size());
    for (const Site* site : sites_) {
      SiteSnapshot snap;
      snap.name = site->name();
      snap.cls = site->cls_;
      snap.count = site->count_.load(std::memory_order_relaxed);
      snap.total_ns = site->total_ns_.load(std::memory_order_relaxed);
      snap.max_ns = site->max_ns_.load(std::memory_order_relaxed);
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        snap.buckets[i] = site->buckets_[i].load(std::memory_order_relaxed);
      }
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SiteSnapshot& a, const SiteSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::array<WaitEventRegistry::ClassTotals, kNumWaitClasses>
WaitEventRegistry::PerClass() const {
  std::array<ClassTotals, kNumWaitClasses> out{};
  for (size_t i = 0; i < kNumWaitClasses; ++i) {
    out[i].count = class_count_[i].load(std::memory_order_relaxed);
    out[i].total_ns = class_ns_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t WaitEventRegistry::SiteQuantileNs(const SiteSnapshot& site,
                                           double q) {
  uint64_t n = 0;
  for (uint64_t b : site.buckets) n += b;
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    uint64_t in_bucket = site.buckets[i];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // The overflow bucket has no upper bound; its best point estimate is
    // the observed maximum.
    if (i + 1 == kHistogramBuckets) return site.max_ns;
    uint64_t lower = i == 0 ? 0 : uint64_t{1024} << (i - 1);
    uint64_t upper = uint64_t{1024} << i;
    double within = static_cast<double>(rank - cumulative) /
                    static_cast<double>(in_bucket);
    uint64_t estimate =
        lower + static_cast<uint64_t>(within *
                                      static_cast<double>(upper - lower));
    return site.max_ns > 0 && estimate > site.max_ns ? site.max_ns
                                                     : estimate;
  }
  return site.max_ns;
}

void WaitEventRegistry::Reset() {
  std::lock_guard<std::mutex> lock(sites_mutex_);
  for (Site* site : sites_) {
    site->count_.store(0, std::memory_order_relaxed);
    site->total_ns_.store(0, std::memory_order_relaxed);
    site->max_ns_.store(0, std::memory_order_relaxed);
    for (auto& b : site->buckets_) b.store(0, std::memory_order_relaxed);
  }
  attributed_ns_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kNumWaitClasses; ++i) {
    class_count_[i].store(0, std::memory_order_relaxed);
    class_ns_[i].store(0, std::memory_order_relaxed);
  }
}

void WaitEventRegistry::StartCapture() {
  std::lock_guard<std::mutex> lock(capture_mutex_);
  captured_.clear();
  capture_enabled_.store(true, std::memory_order_relaxed);
}

std::vector<WaitEventRegistry::WaitSpan> WaitEventRegistry::StopCapture() {
  capture_enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(capture_mutex_);
  std::vector<WaitSpan> out;
  out.swap(captured_);
  return out;
}

}  // namespace obs
}  // namespace hirel
