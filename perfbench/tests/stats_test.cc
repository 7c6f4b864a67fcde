// Unit tests for the benchmark's order statistics and queueing estimate:
// nearest-rank percentiles, the tail-percentile choice for small samples,
// Little's law, the trimmed mean, and the ladder's backlog test. Plain
// asserts-that-stay (no NDEBUG dependence), so the suite needs no test
// framework.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

void TestPercentileIsNearestRank() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(Near(perfbench::Percentile(v, 50), 50));
  EXPECT(Near(perfbench::Percentile(v, 99), 99));
  EXPECT(Near(perfbench::Percentile(v, 100), 100));
  EXPECT(Near(perfbench::Percentile(v, 0), 1));
  EXPECT(Near(perfbench::Percentile({3.0, 1.0, 2.0}, 50), 2));
  EXPECT(Near(perfbench::Percentile({}, 50), 0));
}

void TestSamplesBeyond() {
  EXPECT(perfbench::SamplesBeyond(1000, 99) == 10);
  EXPECT(perfbench::SamplesBeyond(100, 90) == 10);
  EXPECT(perfbench::SamplesBeyond(100, 91) == 9);
  EXPECT(perfbench::SamplesBeyond(20, 50) == 10);
}

void TestTailPercentileLeavesTenBeyond() {
  // Large samples support p99; each tail leaves at least ten samples.
  EXPECT(perfbench::TailPercentile(1000) == 99);
  EXPECT(perfbench::TailPercentile(5000) == 99);
  EXPECT(perfbench::TailPercentile(100) == 90);
  EXPECT(perfbench::TailPercentile(40) == 75);
  EXPECT(perfbench::TailPercentile(21) == 52);
  for (std::size_t n = 20; n <= 2000; ++n) {
    const int p = perfbench::TailPercentile(n);
    EXPECT(perfbench::SamplesBeyond(n, p) >= 10);
    // ...and it is the highest such percentile below the cap.
    if (p < 99) EXPECT(perfbench::SamplesBeyond(n, p + 1) < 10);
  }
  // Too few samples for any tail: the median stands in.
  EXPECT(perfbench::TailPercentile(19) == 50);
  EXPECT(perfbench::TailPercentile(5) == 50);
  EXPECT(perfbench::TailPercentile(0) == 50);
  // The cap: a sample of 100k could support p99.9 but reports p99.
  EXPECT(perfbench::TailPercentile(100000) == perfbench::kMaxTailPercentile);
}

void TestLittlesLaw() {
  // L = 2 jobs at lambda = 100 jobs/s: each waits 20 ms.
  EXPECT(Near(perfbench::LittleWaitMs(2.0, 100.0), 20.0));
  EXPECT(Near(perfbench::LittleWaitMs(0.5, 1000.0), 0.5));
  EXPECT(Near(perfbench::LittleWaitMs(0.0, 50.0), 0.0));
  EXPECT(Near(perfbench::LittleWaitMs(3.0, 0.0), 0.0));
}

void TestTrimmedMeanDropsExtremes() {
  // One stall and one lucky sample do not count.
  EXPECT(Near(perfbench::TrimmedMean({2.0, 100.0, 3.0, 0.0, 4.0}), 3.0));
  // Two modes: it follows the share of samples in the slow one, where the
  // median would jump from 2 to 3 between these two samples.
  EXPECT(Near(perfbench::TrimmedMean({2, 2, 2, 2, 3, 3, 3, 3}), 2.5));
  EXPECT(Near(perfbench::TrimmedMean({2, 2, 2, 3, 3, 3, 3, 3}), 8.0 / 3.0));
  EXPECT(Near(perfbench::TrimmedMean({1.0, 3.0}), 2.0));
  EXPECT(Near(perfbench::TrimmedMean({}), 0.0));
}

void TestBacklogGrowing() {
  // Fluctuation around a few queued jobs is not a backlog...
  EXPECT(!perfbench::BacklogGrowing({0, 1, 0, 2, 1, 0, 1, 1}));
  EXPECT(!perfbench::BacklogGrowing({2, 5, 1, 4, 6, 3, 7, 2}));
  // ...a queue that keeps climbing is.
  EXPECT(perfbench::BacklogGrowing({0, 2, 4, 6, 20, 30, 40, 50}));
  // The slack: second-half mean 9 against 2 * 0 + 8 grows, 8 does not.
  EXPECT(perfbench::BacklogGrowing({0, 0, 0, 0, 9, 9, 9, 9}));
  EXPECT(!perfbench::BacklogGrowing({0, 0, 0, 0, 8, 8, 8, 8}));
  EXPECT(!perfbench::BacklogGrowing({}));
  EXPECT(!perfbench::BacklogGrowing({5}));
}

}  // namespace

int main() {
  TestPercentileIsNearestRank();
  TestSamplesBeyond();
  TestTailPercentileLeavesTenBeyond();
  TestLittlesLaw();
  TestTrimmedMeanDropsExtremes();
  TestBacklogGrowing();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
