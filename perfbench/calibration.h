#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

// A fixed piece of work that measures how fast the host runs the benchmark
// right now, independent of the library under test. It mixes what a query
// does — string building and hashing, an ordered map, small allocations,
// dot products over a 300 x 256 float table and a sort — so that it slows
// down with the host the way the workloads do (see README "Host-speed
// calibration"). Header-only and free of library dependencies.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The calibration time, in ms, that the reported times are scaled to.
inline constexpr double kNominalCalibrationMs = 1.5;

// Runs the calibration work once; returns its wall time in ms.
inline double CalibrationMs() {
  constexpr size_t kRows = 300;
  constexpr size_t kDim = 256;
  static const std::vector<float> table = [] {
    std::vector<float> t(kRows * kDim);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>((i * 2654435761u) % 1000) / 1000.f;
    }
    return t;
  }();
  std::vector<float> query(kDim);
  for (size_t d = 0; d < kDim; ++d) query[d] = static_cast<float>(d % 17) / 17.f;

  const auto start = std::chrono::steady_clock::now();
  volatile double sink = 0;
  for (int round = 0; round < 4; ++round) {
    std::map<std::string, int> counts;
    uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < 600; ++i) {
      const std::string key =
          "question " + std::to_string(i * 7919 % 1000) + " about topic";
      for (char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
      counts[key] += i;
      std::vector<int> scratch(32 + i % 64, i);
      sink = sink + scratch.back();
    }
    double best = -1;
    for (size_t r = 0; r < kRows; ++r) {
      double dot = 0;
      for (size_t d = 0; d < kDim; ++d) dot += table[r * kDim + d] * query[d];
      best = std::max(best, dot);
    }
    std::vector<uint64_t> keys(2000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = (h + i) * 6364136223846793005ULL;
    }
    std::sort(keys.begin(), keys.end());
    sink = sink + best + static_cast<double>(counts.size()) +
           static_cast<double>(keys[7] & 1);
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
