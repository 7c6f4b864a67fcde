#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

namespace trex {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

TEST(RngTest, UniformUint64CoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  const int n = 20000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(29);
  const auto perm = rng.Permutation(50);
  ASSERT_EQ(perm.size(), 50u);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(31);
  EXPECT_TRUE(rng.Permutation(0).empty());
  const auto single = rng.Permutation(1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], 0u);
}

TEST(RngTest, PermutationsAreUniformish) {
  // All 6 permutations of 3 elements should appear with roughly equal
  // frequency.
  Rng rng(37);
  std::map<std::vector<std::size_t>, int> counts;
  const int n = 6000;
  for (int i = 0; i < n; ++i) ++counts[rng.Permutation(3)];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 1.0 / 6.0, 0.03);
  }
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(43);
  Rng child = parent.Fork();
  // The child stream should not mirror the parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  const auto cdf = ZipfTable(4, 0.0);
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_NEAR(cdf[0], 0.25, 1e-12);
  EXPECT_NEAR(cdf[1], 0.50, 1e-12);
  EXPECT_NEAR(cdf[2], 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(ZipfTest, SkewPrefersLowRanks) {
  const auto cdf = ZipfTable(10, 1.2);
  const auto mass = [&](std::size_t rank) {
    return rank == 0 ? cdf[0] : cdf[rank] - cdf[rank - 1];
  };
  EXPECT_GT(mass(0), mass(1));
  EXPECT_GT(mass(1), mass(5));
  EXPECT_GT(mass(0), 0.25);  // rank 0 dominates
}

TEST(ZipfTest, EveryRankHasMass) {
  const auto cdf = ZipfTable(5, 0.5);
  for (std::size_t rank = 1; rank < cdf.size(); ++rank) {
    EXPECT_GT(cdf[rank], cdf[rank - 1]);
  }
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = SplitMix64(&state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(&state2), first);
  EXPECT_NE(SplitMix64(&state2), first);  // second draw differs
}

}  // namespace
}  // namespace trex
