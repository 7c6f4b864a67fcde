// Deterministic pseudo-random number generation.
//
// All stochastic components of T-REx (the Shapley permutation sampler,
// synthetic data generators, error injectors) draw from `Rng`, a
// xoshiro256** generator seeded through splitmix64. Given the same seed the
// whole pipeline is bit-reproducible across platforms, which the tests and
// benchmark harness rely on.

#ifndef TREX_COMMON_RANDOM_H_
#define TREX_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace trex {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t* state);

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit
/// state. Deterministic for a given seed; not cryptographically secure.
class Rng {
 public:
  /// Default seed used across examples and tests.
  static constexpr std::uint64_t kDefaultSeed = 0x7265782d74726578ULL;

  /// Seeds the generator; all four state words are derived via splitmix64
  /// so that similar seeds still give uncorrelated streams.
  explicit Rng(std::uint64_t seed = kDefaultSeed);

  /// Returns the next raw 64-bit output.
  std::uint64_t NextUint64();

  /// Returns an unbiased uniform integer in `[0, bound)`. `bound` must be
  /// positive. Uses rejection sampling (Lemire-style) to avoid modulo bias.
  std::uint64_t UniformUint64(std::uint64_t bound);

  /// Returns a uniform integer in `[lo, hi]` inclusive; requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Returns a uniform double in `[0, 1)` with 53 bits of randomness.
  double UniformDouble();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal variate (Box-Muller; one value per call).
  double Gaussian();

  /// Fisher-Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (std::size_t i = items->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(UniformUint64(i + 1));
      using std::swap;
      swap((*items)[i], (*items)[j]);
    }
  }

  /// Returns a uniformly random permutation of `{0, ..., n-1}`.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Picks a uniformly random element index of a non-empty container size.
  std::size_t Index(std::size_t size) {
    TREX_CHECK_GT(size, 0u);
    return static_cast<std::size_t>(UniformUint64(size));
  }

  /// Derives an independent child generator; convenient for giving each
  /// subtask its own stream without sharing state.
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

/// The normalized CDF of a Zipf distribution over `n` ranks with
/// exponent `s >= 0`: rank 0 is the most likely, and `s == 0` is
/// uniform. Draw a rank by inverse CDF (`std::lower_bound` of a uniform
/// variate).
std::vector<double> ZipfTable(std::size_t n, double s);

}  // namespace trex

#endif  // TREX_COMMON_RANDOM_H_
