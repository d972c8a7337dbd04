// The reference kernel: a fixed piece of work whose run time tracks the
// host's current speed, so statement latencies can be scaled to a constant
// host (latency * kRefMs / R, R the kernel's time around the statement).
//
// It builds a string-keyed hash map (formatting, hashing, node allocation)
// and sorts its keys: the kind of work the engine does. Every allocation
// comes from an arena the kernel owns, reset on each run, so its cost
// depends on the host and not on the state of the engine's heap (a
// malloc-backed variant read slower inside write-heavy workloads than
// inside read-only ones). Of the variants tried, this one tracked the
// engine's run-to-run speed changes most closely; an integer-keyed map
// and an open-addressing table tracked them less.

#ifndef HQLBENCH_REFKERNEL_H_
#define HQLBENCH_REFKERNEL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

namespace hqlbench {

/// The kernel time the normalised figures are scaled to, in ms: about the
/// kernel's time on a 4-vCPU x86-64 VM.
constexpr double kRefMs = 1.0;

class RefKernel {
 public:
  RefKernel() : arena_(kArenaBytes) { Run(); }

  /// Runs the kernel twice and returns the second run's wall time in ms:
  /// the first run brings the arena and code back into cache, so the
  /// timed run does not depend on what the engine last evicted.
  double RunMs() {
    Run();
    auto start = std::chrono::steady_clock::now();
    Run();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

 private:
  static constexpr size_t kKeys = 3200;
  static constexpr size_t kArenaBytes = 1 << 20;

  void Run() {
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::pmr::string, uint64_t> map(&arena);
    map.reserve(kKeys);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    char buf[48];
    for (size_t i = 0; i < kKeys; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::snprintf(buf, sizeof buf, "product-item-%llu",
                    static_cast<unsigned long long>(x >> 40));
      ++map[std::pmr::string(buf, &arena)];
    }
    std::pmr::vector<const std::pmr::string*> keys(&arena);
    keys.reserve(map.size());
    for (const auto& entry : map) keys.push_back(&entry.first);
    std::sort(keys.begin(), keys.end(),
              [](const auto* a, const auto* b) { return *a < *b; });
    checksum_ += keys.size() + static_cast<uint8_t>((*keys[keys.size() / 2])[14]);
  }

  std::vector<std::byte> arena_;
  uint64_t checksum_ = 0;
};

}  // namespace hqlbench

#endif  // HQLBENCH_REFKERNEL_H_
