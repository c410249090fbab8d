// Self-tests of the benchmark's stats helpers. Exits 0 when every check
// holds; prints each failure otherwise. Checks stay on in every build type.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  ++failures;
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

using perfbench::Interval;

void TestPercentiles() {
  // Nearest rank: p50 of 1..10 is the 5th value, p90 the 9th, p100 the 10th.
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::PercentileIndex(10, 0.5) == 4);
  CHECK(perfbench::PercentileIndex(10, 0.9) == 8);
  CHECK(perfbench::PercentileIndex(10, 1.0) == 9);
  CHECK(perfbench::PercentileIndex(1, 0.99) == 0);
  CHECK(perfbench::PercentileIndex(100, 0.99) == 98);
  CHECK(perfbench::Percentile(v, 0.5) == 5.0);
  CHECK(perfbench::Percentile(v, 0.9) == 9.0);
  CHECK(std::isnan(perfbench::Percentile({}, 0.5)));
  CHECK(perfbench::Median({3, 1, 2}) == 2.0);
  CHECK(perfbench::Median({4, 1, 2, 3}) == 2.5);

  // At least ten samples beyond the percentile: p90 needs n >= 100, p99
  // needs n >= 1000, p50 needs n >= 20.
  CHECK(perfbench::SamplesBeyond(100, 0.9) == 10);
  CHECK(perfbench::PercentileSupported(100, 0.9));
  CHECK(!perfbench::PercentileSupported(99, 0.9));
  CHECK(perfbench::PercentileSupported(1000, 0.99));
  CHECK(!perfbench::PercentileSupported(999, 0.99));
  CHECK(perfbench::PercentileSupported(20, 0.5));
  CHECK(!perfbench::PercentileSupported(19, 0.5));
  CHECK(!perfbench::PercentileSupported(0, 0.5));
}

void TestSpans() {
  // [0,10) and [5,15) overlap: union 15; [20,25) is apart; an empty span
  // adds nothing.
  CHECK(perfbench::UnionLength({{0, 10}, {5, 15}, {20, 25}, {30, 30}}) == 20);
  CHECK(perfbench::UnionLength({{5, 15}, {0, 10}}) == 15);
  CHECK(perfbench::UnionLength({{0, 10}, {2, 3}}) == 10);  // nested
  CHECK(perfbench::UnionLength({{0, 10}, {10, 20}}) == 20);  // touching
  CHECK(perfbench::UnionLength({}) == 0);

  // Parent [0,100) with overlapping children [10,30) and [20,40) and a child
  // sticking out past the end [90,120): self time is 100 - 30 - 10 = 60.
  const Interval parent{0, 100};
  CHECK(perfbench::SelfTime(parent, {{10, 30}, {20, 40}, {90, 120}}) == 60);
  CHECK(perfbench::SelfTime(parent, {}) == 100);
  CHECK(perfbench::SelfTime(parent, {{0, 100}, {50, 60}}) == 0);
  CHECK(perfbench::SelfTime(parent, {{200, 300}}) == 100);
}

void TestLittlesLaw() {
  // Mean queue length 0.5 with 100 arrivals in 10 s (10/s): W = 0.05 s.
  const double w = perfbench::LittleWaitSeconds({0, 1, 0, 1}, 100, 10);
  CHECK(std::fabs(w - 0.05) < 1e-12);
  CHECK(perfbench::LittleWaitSeconds({2, 2}, 0, 10) == 0.0);
  CHECK(perfbench::LittleWaitSeconds({}, 5, 10) == 0.0);
  CHECK(perfbench::LittleWaitSeconds({0, 0, 0}, 5, 10) == 0.0);
}

void TestProcessReaders() {
  const double cpu0 = perfbench::ProcessCpuSeconds();
  volatile double sink = 0;
  double spent = 0;
  while (spent < 0.05) {
    for (int i = 0; i < 1000000; ++i) sink = sink + std::sqrt(i);
    spent = perfbench::ProcessCpuSeconds() - cpu0;
  }
  CHECK(spent >= 0.05);
  CHECK(perfbench::ProcessCpuSeconds() >= cpu0 + spent);

  const std::string status =
      "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
  CHECK(perfbench::StatusFieldKb(status, "VmHWM") == 2048.0);
  CHECK(perfbench::StatusFieldKb(status, "VmRSS") == 1024.0);
  CHECK(perfbench::StatusFieldKb(status, "VmSwap") == -1.0);

  // Touching 64 MB raises both current and peak RSS by about that much.
  const double rss0 = perfbench::CurrentRssMb();
  const double peak0 = perfbench::PeakRssMb();
  std::vector<char> block(64u << 20, 1);
  for (size_t i = 0; i < block.size(); i += 4096) block[i] = static_cast<char>(i);
  const double rss1 = perfbench::CurrentRssMb();
  const double peak1 = perfbench::PeakRssMb();
  CHECK(rss0 > 0 && peak0 >= rss0);
  CHECK(rss1 - rss0 > 48.0);
  CHECK(peak1 - peak0 > 32.0);
  CHECK(block[4096] == static_cast<char>(4096));
}

}  // namespace

int main() {
  TestPercentiles();
  TestSpans();
  TestLittlesLaw();
  TestProcessReaders();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
