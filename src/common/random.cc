#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace trex {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // xoshiro must not start from the all-zero state; splitmix64 cannot
  // produce four consecutive zeros, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::UniformUint64(std::uint64_t bound) {
  TREX_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound`.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  TREX_CHECK_LE(lo, hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(NextUint64());  // full range
  return lo + static_cast<std::int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Shuffle(&perm);
  return perm;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

std::vector<double> ZipfTable(std::size_t n, double s) {
  TREX_CHECK_GT(n, 0u);
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf[rank] = total;
  }
  for (auto& x : cdf) x /= total;
  cdf.back() = 1.0;
  return cdf;
}

}  // namespace trex
