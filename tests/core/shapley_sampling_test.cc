#include "core/shapley_sampling.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

#include "common/random.h"
#include "core/shapley_exact.h"

namespace trex::shap {
namespace {

class LambdaGame : public Game {
 public:
  LambdaGame(std::size_t n, std::function<double(std::uint64_t)> v)
      : n_(n), v_(std::move(v)) {}
  std::size_t num_players() const override { return n_; }
  double Value(const Coalition& coalition) const override {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < coalition.size(); ++i) {
      if (coalition[i]) mask |= std::uint64_t{1} << i;
    }
    return v_(mask);
  }

 private:
  std::size_t n_;
  std::function<double(std::uint64_t)> v_;
};

LambdaGame GloveGame() {
  return LambdaGame(3, [](std::uint64_t mask) {
    const bool left = mask & 0b001;
    const bool right = mask & 0b110;
    return left && right ? 1.0 : 0.0;
  });
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stat.std_error(), std::sqrt(32.0 / 7.0 / 8.0), 1e-12);
}

TEST(RunningStatTest, ZeroAndOneSamples) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  stat.Add(3.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stat.std_error(), 0.0);
}

TEST(RunningStatTest, ToEstimateCopiesMoments) {
  RunningStat stat;
  stat.Add(1.0);
  stat.Add(3.0);
  const Estimate e = stat.ToEstimate();
  EXPECT_DOUBLE_EQ(e.value, 2.0);
  EXPECT_EQ(e.num_samples, 2u);
  EXPECT_GT(e.std_error, 0.0);
}

TEST(EstimateTest, ConfidenceInterval) {
  Estimate e;
  e.value = 1.0;
  e.std_error = 0.1;
  EXPECT_NEAR(e.ci_low(), 1.0 - 0.196, 1e-9);
  EXPECT_NEAR(e.ci_high(), 1.0 + 0.196, 1e-9);
  EXPECT_NEAR(e.ci_low(1.0), 0.9, 1e-12);
}

TEST(SamplingTest, SinglePlayerConvergesToExact) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 4000;
  options.seed = 17;
  auto estimate = EstimateShapleyForPlayer(game, 0, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->value, 2.0 / 3.0, 0.03);
  EXPECT_GT(estimate->std_error, 0.0);
  EXPECT_EQ(estimate->num_samples, 4000u);
}

TEST(SamplingTest, AllPlayersConvergeToExact) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 4000;
  options.seed = 19;
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(estimates.ok());
  ASSERT_EQ(estimates->size(), 3u);
  EXPECT_NEAR((*estimates)[0].value, 2.0 / 3.0, 0.03);
  EXPECT_NEAR((*estimates)[1].value, 1.0 / 6.0, 0.03);
  EXPECT_NEAR((*estimates)[2].value, 1.0 / 6.0, 0.03);
}

TEST(SamplingTest, DeterministicForSeed) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 100;
  options.seed = 23;
  auto a = EstimateShapleyAllPlayers(game, options);
  auto b = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].value, (*b)[i].value);
  }
}

TEST(SamplingTest, DifferentSeedsDiffer) {
  const LambdaGame game = GloveGame();
  SamplingOptions a_options;
  a_options.num_samples = 50;
  a_options.seed = 1;
  SamplingOptions b_options = a_options;
  b_options.seed = 2;
  auto a = EstimateShapleyForPlayer(game, 0, a_options);
  auto b = EstimateShapleyForPlayer(game, 0, b_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->value, b->value);
}

TEST(SamplingTest, PlayerOutOfRangeRejected) {
  const LambdaGame game = GloveGame();
  EXPECT_FALSE(EstimateShapleyForPlayer(game, 3, {}).ok());
}

TEST(SamplingTest, ZeroSamplesRejected) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 0;
  EXPECT_FALSE(EstimateShapleyForPlayer(game, 0, options).ok());
  EXPECT_FALSE(EstimateShapleyAllPlayers(game, options).ok());
}

TEST(SamplingTest, EmptyGameAllPlayers) {
  LambdaGame game(0, [](std::uint64_t) { return 0.0; });
  auto estimates = EstimateShapleyAllPlayers(game, {});
  ASSERT_TRUE(estimates.ok());
  EXPECT_TRUE(estimates->empty());
}

TEST(SamplingTest, EarlyStoppingOnTargetStdError) {
  // A constant-marginal game: every sample is identical, so variance is
  // 0 and the early stop should trigger at the first check.
  LambdaGame game(4, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask));
  });
  SamplingOptions options;
  options.num_samples = 100000;
  options.stop.target_half_width = options.stop.z * 0.01;
  options.check_interval = 32;
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(estimates.ok());
  EXPECT_LT((*estimates)[0].num_samples, 100u);
  EXPECT_NEAR((*estimates)[0].value, 1.0, 1e-12);
}

TEST(SamplingTest, AntitheticDoublesSampleCount) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 100;
  options.antithetic = true;
  auto estimate = EstimateShapleyForPlayer(game, 0, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->num_samples, 200u);
}

TEST(SamplingTest, AntitheticStillUnbiased) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 2000;
  options.antithetic = true;
  options.seed = 29;
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(estimates.ok());
  EXPECT_NEAR((*estimates)[0].value, 2.0 / 3.0, 0.03);
}

TEST(SamplingTest, SumOfEstimatesNearEfficiency) {
  // For a sweep estimator each permutation's marginals telescope to
  // v(N) - v(∅) exactly, so the estimate sum is exact.
  LambdaGame game(5, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask) * std::popcount(mask));
  });
  SamplingOptions options;
  options.num_samples = 50;
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(estimates.ok());
  double total = 0;
  for (const Estimate& e : *estimates) total += e.value;
  EXPECT_NEAR(total, 25.0, 1e-9);
}

// Property sweep: on random games, sampled estimates must fall within a
// few standard errors of the exact values.
class SamplingConvergenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplingConvergenceTest, EstimatesWithinConfidenceBands) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.Index(3);
  std::vector<double> v(std::size_t{1} << n);
  v[0] = 0.0;
  for (std::size_t mask = 1; mask < v.size(); ++mask) {
    v[mask] = rng.Bernoulli(0.5) ? 1.0 : 0.0;  // binary game like T-REx
  }
  LambdaGame game(n, [&v](std::uint64_t mask) { return v[mask]; });

  auto exact = ComputeExactShapley(game);
  ASSERT_TRUE(exact.ok());

  SamplingOptions options;
  options.num_samples = 3000;
  options.seed = GetParam() * 7919 + 1;
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(estimates.ok());

  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::fabs((*estimates)[i].value - (*exact)[i]);
    const double band =
        std::max(5.0 * (*estimates)[i].std_error, 0.02);
    EXPECT_LE(err, band) << "player " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingConvergenceTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace trex::shap
