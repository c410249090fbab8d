#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics and process readers shared by the benchmark and its self-test.
// Header-only and free of library dependencies so the self-test links alone.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank index of the p-th percentile (0 < p <= 1) in a sorted sample
// of size n >= 1: the smallest rank r with r >= p * n, zero-based.
inline size_t PercentileIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

// Samples that sit strictly above the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, p);
}

// A percentile is reported only when at least `min_beyond` samples lie
// beyond it; otherwise it is one or two outliers, not a tail.
inline bool PercentileSupported(size_t n, double p, size_t min_beyond = 10) {
  return n > 0 && SamplesBeyond(n, p) >= min_beyond;
}

// Nearest-rank percentile; NaN for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[PercentileIndex(v.size(), p)];
}

// Midpoint median (the mean of the two middle values for even n).
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A half-open time interval in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Total length covered by the union of `spans` (overlaps counted once).
inline int64_t UnionLength(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& s : spans) {
    if (s.end <= s.start) continue;
    if (open && s.start <= cur_end) {
      cur_end = std::max(cur_end, s.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s.start;
    cur_end = s.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

// Self time of `parent`: its length minus the part of it that the union of
// `children` covers (children are clipped to the parent first).
inline int64_t SelfTime(Interval parent, const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const auto& c : children) {
    Interval x{std::max(c.start, parent.start), std::min(c.end, parent.end)};
    if (x.end > x.start) clipped.push_back(x);
  }
  return std::max<int64_t>(0, parent.end - parent.start) -
         UnionLength(std::move(clipped));
}

// Little's law: mean wait W = L / lambda, where L is the mean of the sampled
// queue-length gauge and lambda = arrivals / seconds. Returns seconds; 0
// when nothing arrived.
inline double LittleWaitSeconds(const std::vector<double>& gauge_samples,
                                double arrivals, double seconds) {
  if (gauge_samples.empty() || arrivals <= 0.0 || seconds <= 0.0) return 0.0;
  double sum = 0.0;
  for (double g : gauge_samples) sum += g;
  const double mean_length = sum / static_cast<double>(gauge_samples.size());
  return mean_length / (arrivals / seconds);
}

// Process user + system CPU seconds so far (all threads).
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Value in kB of a "Name:   123 kB" line of /proc/<pid>/status text; -1 when
// the field is absent.
inline double StatusFieldKb(const std::string& status_text,
                            const std::string& field) {
  std::istringstream in(status_text);
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    return std::strtod(line.c_str() + prefix.size(), nullptr);
  }
  return -1.0;
}

inline std::string ReadProcStatus() {
  std::ifstream in("/proc/self/status");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Peak resident set size in MB (VmHWM), falling back to getrusage.
inline double PeakRssMb() {
  const double kb = StatusFieldKb(ReadProcStatus(), "VmHWM");
  if (kb >= 0.0) return kb / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Current resident set size in MB (VmRSS); -1 when unavailable.
inline double CurrentRssMb() {
  const double kb = StatusFieldKb(ReadProcStatus(), "VmRSS");
  return kb < 0.0 ? -1.0 : kb / 1024.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
