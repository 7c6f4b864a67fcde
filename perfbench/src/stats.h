// Order statistics and queueing estimates shared by the benchmark's
// workloads. Header-only so the unit tests in perfbench/tests/ can pin
// the exact definitions the reported numbers use.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `p` in [0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // p * n first: exact for whole percentiles, so p99 of 1000 is rank 990.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
inline std::size_t SamplesBeyond(std::size_t n, int p) {
  const double rank =
      std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0);
  return n - std::min(n, static_cast<std::size_t>(rank));
}

/// A tail percentile must leave at least this many samples beyond it.
constexpr std::size_t kMinSamplesBeyondTail = 10;
/// The highest tail percentile reported.
constexpr int kMaxTailPercentile = 99;

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile in [50, `kMaxTailPercentile`] that leaves at least
/// `kMinSamplesBeyondTail` samples beyond it. Samples too small for any
/// tail fall back to the median (50), which the caller reports as such.
inline int TailPercentile(std::size_t n) {
  for (int p = kMaxTailPercentile; p > 50; --p) {
    if (SamplesBeyond(n, p) >= kMinSamplesBeyondTail) return p;
  }
  return 50;
}

/// Little's law, W = L / lambda: the mean time a job waits in the queue,
/// in milliseconds, from the mean queue depth seen by arrivals and the
/// arrival rate in jobs per second. 0 when nothing arrived.
inline double LittleWaitMs(double mean_depth, double arrivals_per_s) {
  if (arrivals_per_s <= 0.0) return 0.0;
  return 1e3 * mean_depth / arrivals_per_s;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

/// The mean without the lowest and the highest sample (the plain mean of
/// fewer than three). Unlike the median it moves smoothly with the share
/// of samples in each mode of a two-mode sample, and one stall cannot
/// move it far.
inline double TrimmedMean(std::vector<double> samples) {
  if (samples.size() < 3) return Mean(samples);
  std::sort(samples.begin(), samples.end());
  return Mean(std::vector<double>(samples.begin() + 1, samples.end() - 1));
}

/// Queued jobs a rung's second half may add beyond doubling its first
/// half's mean depth before the backlog counts as growing.
constexpr double kBacklogSlackJobs = 8.0;

/// True when the queue depth grew across a rung of the open-loop ladder:
/// the depths sampled at the sends of the rung's second half average more
/// than twice those of its first half plus `kBacklogSlackJobs`. A stable
/// queue fluctuates around a constant depth; an overloaded one keeps
/// climbing.
inline bool BacklogGrowing(const std::vector<double>& depths_at_sends) {
  const std::size_t half = depths_at_sends.size() / 2;
  if (half == 0) return false;
  const std::vector<double> first(depths_at_sends.begin(),
                                  depths_at_sends.begin() + half);
  const std::vector<double> second(depths_at_sends.begin() + half,
                                   depths_at_sends.end());
  return Mean(second) > 2.0 * Mean(first) + kBacklogSlackJobs;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
