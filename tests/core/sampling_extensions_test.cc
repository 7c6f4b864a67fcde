// Tests for the sampling extensions: stratified estimation and top-k
// separation on the sweep driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <vector>

#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"

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

TEST(StratifiedTest, ConvergesToExactValue) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 6000;
  options.seed = 11;
  auto estimate = EstimateShapleyStratified(game, 0, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->value, 2.0 / 3.0, 0.03);
  EXPECT_GT(estimate->num_samples, 0u);
}

TEST(StratifiedTest, ExactForSizeDeterminedGames) {
  // v(S) = |S|: the marginal is exactly 1 in every stratum, so the
  // stratified estimate is exact with zero variance even at a tiny
  // budget — the case stratification is built for.
  LambdaGame game(6, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask));
  });
  SamplingOptions options;
  options.num_samples = 12;  // 2 per stratum
  auto estimate = EstimateShapleyStratified(game, 2, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(estimate->value, 1.0);
  EXPECT_DOUBLE_EQ(estimate->std_error, 0.0);
}

TEST(StratifiedTest, BeatsPlainSamplingOnThresholdGames) {
  // Threshold game: v = 1 iff |S| >= 4 of 8 — marginals depend on the
  // coalition size only, so stratification removes all between-stratum
  // variance. Compare stderr at equal budgets.
  LambdaGame game(8, [](std::uint64_t mask) {
    return std::popcount(mask) >= 4 ? 1.0 : 0.0;
  });
  SamplingOptions options;
  options.num_samples = 800;
  options.seed = 13;
  auto stratified = EstimateShapleyStratified(game, 0, options);
  auto plain = EstimateShapleyForPlayer(game, 0, options);
  ASSERT_TRUE(stratified.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_NEAR(stratified->value, 1.0 / 8.0, 0.02);
  EXPECT_NEAR(plain->value, 1.0 / 8.0, 0.05);
  EXPECT_LT(stratified->std_error, plain->std_error);
}

TEST(StratifiedTest, Validation) {
  const LambdaGame game = GloveGame();
  EXPECT_FALSE(EstimateShapleyStratified(game, 5, {}).ok());
  SamplingOptions options;
  options.num_samples = 0;
  EXPECT_FALSE(EstimateShapleyStratified(game, 0, options).ok());
}

TEST(StratifiedTest, DeterministicForSeed) {
  const LambdaGame game = GloveGame();
  SamplingOptions options;
  options.num_samples = 300;
  options.seed = 17;
  auto a = EstimateShapleyStratified(game, 1, options);
  auto b = EstimateShapleyStratified(game, 1, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->value, b->value);
}

/// Top-k separation on the sweep driver: one sweep per shard, a
/// separation test every `batch` sweeps at z = 2 once the k-th player
/// has 8 samples.
SamplingOptions TopKSampling(std::size_t k, std::size_t batch = 16,
                             std::size_t max_samples = 4096) {
  SamplingOptions options;
  options.num_samples = max_samples;
  options.shard_size = 1;
  options.check_interval = batch;
  options.stop.top_k = k;
  options.stop.z = 2.0;
  options.stop.min_samples = 8;
  return options;
}

/// Players by estimate, descending; ties keep player order.
std::vector<std::size_t> Ranking(const std::vector<Estimate>& estimates) {
  std::vector<std::size_t> order(estimates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&estimates](std::size_t a, std::size_t b) {
                     return estimates[a].value > estimates[b].value;
                   });
  return order;
}

TEST(TopKTest, FindsTheTopPlayer) {
  const LambdaGame game = GloveGame();
  SamplingOptions options = TopKSampling(1);
  options.seed = 19;
  SweepOutcome outcome;
  auto result = EstimateShapleyAllPlayers(game, options, &outcome);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(outcome.separated);
  EXPECT_EQ(Ranking(*result)[0], 0u);  // the left glove dominates
  EXPECT_LT(outcome.sweeps, options.num_samples);
}

TEST(TopKTest, SeparationStopsEarlyOnEasyGames) {
  // Additive game with well-separated weights: should separate fast.
  LambdaGame game(6, [](std::uint64_t mask) {
    double total = 0;
    const double w[] = {32, 16, 8, 4, 2, 1};
    for (int i = 0; i < 6; ++i) {
      if (mask & (1u << i)) total += w[i];
    }
    return total;
  });
  const SamplingOptions options = TopKSampling(2, /*batch=*/8);
  SweepOutcome outcome;
  auto result = EstimateShapleyAllPlayers(game, options, &outcome);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(outcome.separated);
  EXPECT_EQ(Ranking(*result)[0], 0u);
  EXPECT_EQ(Ranking(*result)[1], 1u);
  EXPECT_LE(outcome.sweeps, 64u);
}

TEST(TopKTest, BudgetExhaustionOnTiedPlayers) {
  // Symmetric game: players are exchangeable, the k/k+1 boundary can
  // never separate; the driver must stop at the budget.
  LambdaGame game(4, [](std::uint64_t mask) {
    return std::popcount(mask) >= 2 ? 1.0 : 0.0;
  });
  const SamplingOptions options =
      TopKSampling(2, /*batch=*/16, /*max_samples=*/128);
  SweepOutcome outcome;
  auto result = EstimateShapleyAllPlayers(game, options, &outcome);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(outcome.separated);
  EXPECT_EQ(outcome.sweeps, 128u);
}

TEST(TopKTest, KCoveringAllPlayersIsTriviallySeparated) {
  const LambdaGame game = GloveGame();
  SweepOutcome outcome;
  auto result = EstimateShapleyAllPlayers(game, TopKSampling(3), &outcome);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(outcome.separated);
}

TEST(TopKTest, EstimatesAgreeWithExact) {
  const LambdaGame game = GloveGame();
  SamplingOptions options = TopKSampling(1);
  options.seed = 23;
  auto result = EstimateShapleyAllPlayers(game, options);
  ASSERT_TRUE(result.ok());
  auto exact = ComputeExactShapley(game);
  ASSERT_TRUE(exact.ok());
  // The top player's estimate must be near its exact value even when
  // stopping early (unbiasedness doesn't depend on the stop rule's
  // ordering statistics much at these counts).
  const std::size_t top = Ranking(*result)[0];
  EXPECT_NEAR((*result)[top].value, (*exact)[top], 0.1);
}

TEST(TopKTest, Validation) {
  const LambdaGame game = GloveGame();
  SamplingOptions options = TopKSampling(1);
  options.num_samples = 0;
  EXPECT_FALSE(EstimateShapleyAllPlayers(game, options).ok());
  options.num_samples = 64;
  options.shard_size = 0;
  EXPECT_FALSE(EstimateShapleyAllPlayers(game, options).ok());
  LambdaGame empty(0, [](std::uint64_t) { return 0.0; });
  auto result = EstimateShapleyAllPlayers(empty, TopKSampling(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace trex::shap
