// Anytime estimation: confidence-bounded early stopping on the
// wave-synchronous sweep driver. The load-bearing guarantee under test
// is *bit-identity across thread counts with early stopping on* — the
// stopping wave, the freeze set, and every merged estimate must depend
// only on the configuration, never on scheduling.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/shapley_sampling.h"
#include "serving/cancel.h"

namespace trex::shap {
namespace {

/// Mask-valued game with an evaluation counter, so tests can assert on
/// the black-box cost of a run (the freeze set's whole point).
class CountingGame : public Game {
 public:
  CountingGame(std::size_t n, std::function<double(std::uint64_t)> v)
      : n_(n), v_(std::move(v)) {}
  std::size_t num_players() const override { return n_; }
  double Value(const Coalition& coalition) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < coalition.size(); ++i) {
      if (coalition[i]) mask |= std::uint64_t{1} << i;
    }
    return v_(mask);
  }
  std::size_t evals() const { return evals_.load(std::memory_order_relaxed); }

 private:
  std::size_t n_;
  std::function<double(std::uint64_t)> v_;
  mutable std::atomic<std::size_t> evals_{0};
};

/// Four players: three noisy contributors (distinct weights plus a pair
/// interaction, so marginals have real variance) and one null player
/// whose marginal is always exactly 0 — the null player converges at
/// `min_samples` under the normal bound and exercises freezing.
CountingGame NoisyWithNullPlayer() {
  return CountingGame(4, [](std::uint64_t mask) {
    double v = 0.0;
    if (mask & 0b0001) v += 0.3;
    if (mask & 0b0010) v += 0.5;
    if (mask & 0b0100) v += 0.7;
    if ((mask & 0b0011) == 0b0011) v += 0.4;  // pair interaction
    return v;  // player 3 never contributes
  });
}

struct RunResult {
  std::vector<Estimate> estimates;
  SweepOutcome outcome;
};

RunResult RunAllPlayers(const Game& game, const SamplingOptions& options) {
  SweepOutcome outcome;
  auto estimates = EstimateShapleyAllPlayers(game, options, &outcome);
  EXPECT_TRUE(estimates.ok()) << estimates.status().ToString();
  return {std::move(estimates).value(), std::move(outcome)};
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t p = 0; p < a.estimates.size(); ++p) {
    EXPECT_EQ(a.estimates[p].value, b.estimates[p].value) << "player " << p;
    EXPECT_EQ(a.estimates[p].std_error, b.estimates[p].std_error)
        << "player " << p;
    EXPECT_EQ(a.estimates[p].num_samples, b.estimates[p].num_samples)
        << "player " << p;
  }
  EXPECT_EQ(a.outcome.sweeps, b.outcome.sweeps);
  EXPECT_EQ(a.outcome.waves, b.outcome.waves);
  EXPECT_EQ(a.outcome.stopped_early, b.outcome.stopped_early);
  EXPECT_EQ(a.outcome.frozen_players, b.outcome.frozen_players);
  EXPECT_EQ(a.outcome.achieved_half_width, b.outcome.achieved_half_width);
}

TEST(CiHalfWidthTest, InfiniteBelowTwoSamples) {
  RunningStat stat;
  StopRule rule;
  EXPECT_TRUE(std::isinf(CiHalfWidth(stat, rule)));
  stat.Add(1.0);
  EXPECT_TRUE(std::isinf(CiHalfWidth(stat, rule)));
  rule.bound = BoundKind::kBernstein;
  EXPECT_TRUE(std::isinf(CiHalfWidth(stat, rule)));
}

TEST(CiHalfWidthTest, NormalMatchesZTimesStdError) {
  RunningStat stat;
  for (double x : {0.0, 1.0, 0.0, 1.0}) stat.Add(x);
  StopRule rule;
  rule.z = 2.0;
  EXPECT_DOUBLE_EQ(CiHalfWidth(stat, rule), 2.0 * stat.std_error());
}

TEST(CiHalfWidthTest, BernsteinStaysPositiveOnZeroVariance) {
  // The O(1/n) range term keeps a zero-variance player's width positive
  // — where the normal bound collapses to 0 after two samples — and the
  // width shrinks as samples accumulate.
  RunningStat stat;
  stat.Add(0.5);
  stat.Add(0.5);
  StopRule rule;
  rule.bound = BoundKind::kBernstein;
  const double w2 = CiHalfWidth(stat, rule);
  EXPECT_GT(w2, 0.0);
  for (int i = 0; i < 100; ++i) stat.Add(0.5);
  const double w102 = CiHalfWidth(stat, rule);
  EXPECT_GT(w102, 0.0);
  EXPECT_LT(w102, w2);

  StopRule normal;
  EXPECT_EQ(CiHalfWidth(stat, normal), 0.0);
}

// The acceptance matrix: threads {1, 2, 8} x bounds {normal, Bernstein}
// with early stopping active must agree bit-for-bit — same estimates,
// same stopping sweep, same wave count, same freeze set size.
TEST(AnytimeSweepTest, EarlyStopReproducibilityMatrix) {
  const CountingGame game = NoisyWithNullPlayer();
  for (const BoundKind bound : {BoundKind::kNormal, BoundKind::kBernstein}) {
    SamplingOptions options;
    options.num_samples = 4096;
    options.seed = 41;
    options.shard_size = 16;
    options.check_interval = 64;  // 4 shards per wave
    options.stop.target_half_width = bound == BoundKind::kNormal ? 0.02 : 0.45;
    options.stop.bound = bound;

    options.num_threads = 1;
    const RunResult serial = RunAllPlayers(game, options);
    // The rule must actually fire mid-budget, or the matrix proves
    // nothing about early stopping.
    EXPECT_TRUE(serial.outcome.stopped_early);
    EXPECT_LT(serial.outcome.sweeps, options.num_samples);
    EXPECT_GT(serial.outcome.sweeps, 0u);

    for (const std::size_t threads : {2u, 8u}) {
      options.num_threads = threads;
      const RunResult parallel = RunAllPlayers(game, options);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " bound="
                   << (bound == BoundKind::kNormal ? "normal" : "bernstein"));
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(AnytimeSweepTest, StopsAtTargetAndReportsAchievedWidth) {
  const CountingGame game = NoisyWithNullPlayer();
  SamplingOptions options;
  options.num_samples = 8192;
  options.seed = 7;
  options.shard_size = 16;
  options.check_interval = 64;
  options.stop.target_half_width = 0.08;

  const RunResult run = RunAllPlayers(game, options);
  EXPECT_TRUE(run.outcome.stopped_early);
  EXPECT_LT(run.outcome.sweeps, options.num_samples);
  EXPECT_LE(run.outcome.achieved_half_width, 0.08);
  EXPECT_GT(run.outcome.achieved_half_width, 0.0);
  // Sweeps land on a wave boundary: waves of 4 shards x 16 sweeps.
  EXPECT_EQ(run.outcome.sweeps % 64, 0u);
  EXPECT_EQ(run.outcome.waves, run.outcome.sweeps / 64);
}

// Freezing a converged player must (a) leave every unfrozen player's
// estimate bit-identical to the no-freeze run, (b) stop at the same
// wave, and (c) spend strictly fewer black-box evaluations.
TEST(AnytimeSweepTest, FreezeSkipsConvergedPlayersWithoutPerturbingOthers) {
  SamplingOptions options;
  options.num_samples = 4096;
  options.seed = 23;
  options.shard_size = 16;
  options.check_interval = 64;
  // Tight enough that the noisy players need several waves after the
  // null player converges — that gap is where freezing saves work.
  options.stop.target_half_width = 0.02;
  options.stop.min_samples = 16;

  const CountingGame frozen_game = NoisyWithNullPlayer();
  options.stop.freeze_converged = true;
  const RunResult with_freeze = RunAllPlayers(frozen_game, options);

  const CountingGame free_game = NoisyWithNullPlayer();
  options.stop.freeze_converged = false;
  const RunResult no_freeze = RunAllPlayers(free_game, options);

  // The two zero-variance players — the null player 3 and player 2,
  // whose marginal is the constant 0.7 — converge at the first wave and
  // freeze; the noisy players 0 and 1 keep sampling.
  EXPECT_GE(with_freeze.outcome.frozen_players, 2u);
  EXPECT_EQ(no_freeze.outcome.frozen_players, 0u);

  // Same stopping decision: freezing skips evaluations, never samples
  // that the stopping rule would have seen.
  EXPECT_EQ(with_freeze.outcome.sweeps, no_freeze.outcome.sweeps);
  EXPECT_EQ(with_freeze.outcome.waves, no_freeze.outcome.waves);

  // Unfrozen players: bit-identical estimates (the lazy prefix
  // re-evaluation reproduces the exact same marginals).
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(with_freeze.estimates[p].value, no_freeze.estimates[p].value)
        << "player " << p;
    EXPECT_EQ(with_freeze.estimates[p].num_samples,
              no_freeze.estimates[p].num_samples)
        << "player " << p;
  }
  // Frozen players keep their converged values — exactly 0.7 and 0,
  // since both are deterministic — with fewer samples than the run's
  // sweep count.
  EXPECT_NEAR(with_freeze.estimates[2].value, 0.7, 1e-12);
  EXPECT_EQ(with_freeze.estimates[3].value, 0.0);
  for (std::size_t p : {2u, 3u}) {
    EXPECT_LT(with_freeze.estimates[p].num_samples,
              no_freeze.estimates[p].num_samples)
        << "player " << p;
  }

  // And the savings are real black-box calls.
  EXPECT_LT(frozen_game.evals(), free_game.evals());
}

TEST(AnytimeSweepTest, SoftenKeepsPartialEstimates) {
  const CountingGame game = NoisyWithNullPlayer();
  CancelSource soften;
  soften.Cancel();  // already fired: the driver should do exactly one wave

  SamplingOptions options;
  options.num_samples = 4096;
  options.seed = 11;
  options.shard_size = 16;
  options.check_interval = 64;
  // Unreachable target: only the soften token can end this run early.
  options.stop.target_half_width = 1e-12;
  options.stop.soften = soften.token();

  const RunResult run = RunAllPlayers(game, options);
  EXPECT_TRUE(run.outcome.softened);
  EXPECT_TRUE(run.outcome.stopped_early);
  EXPECT_EQ(run.outcome.sweeps, 64u);  // exactly one wave
  EXPECT_EQ(run.outcome.waves, 1u);
  for (const Estimate& e : run.estimates) {
    EXPECT_EQ(e.num_samples, 64u);  // partial but valid
  }
  EXPECT_GT(run.outcome.achieved_half_width, 0.0);
  EXPECT_FALSE(std::isinf(run.outcome.achieved_half_width));
}

TEST(AnytimeSweepTest, HardCancelDiscardsInsteadOfSoftening) {
  const CountingGame game = NoisyWithNullPlayer();
  CancelSource cancel;
  cancel.Cancel();
  SamplingOptions options;
  options.num_samples = 256;
  options.cancel = cancel.token();
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_FALSE(estimates.ok());
  EXPECT_TRUE(estimates.status().IsCancelled());
}

TEST(AnytimeSweepTest, CancelMidRunBoundsEvaluationCount) {
  // The cancel poll in the sweep driver is load-bearing: when the token
  // trips mid-run, at most the in-flight sweep may finish. A game that
  // cancels its own source on the 16th evaluation must see the total
  // evaluation count stay within a few sweeps of the trigger — not the
  // ~2500 evaluations of the full budget. (The per-sweep poll is the
  // granularity contract documented at the trex-check-ok(cancel-poll)
  // suppressions in core/.)
  CancelSource cancel;
  std::atomic<std::size_t> seen{0};
  const CountingGame game(4, [&](std::uint64_t mask) {
    if (seen.fetch_add(1, std::memory_order_relaxed) + 1 == 16) {
      cancel.Cancel();
    }
    double v = 0.0;
    if (mask & 0b0001) v += 0.3;
    if (mask & 0b0010) v += 0.5;
    if (mask & 0b0100) v += 0.7;
    return v;
  });
  SamplingOptions options;
  options.num_samples = 512;
  options.seed = 7;
  options.cancel = cancel.token();
  auto estimates = EstimateShapleyAllPlayers(game, options);
  ASSERT_FALSE(estimates.ok());
  EXPECT_TRUE(estimates.status().IsCancelled());
  // Trigger + at most a couple of (possibly antithetic) sweeps of
  // overshoot; a missing poll would run the full budget instead.
  EXPECT_LT(game.evals(), std::size_t{16 + 64});
  EXPECT_GE(game.evals(), std::size_t{16});
}

TEST(AnytimeSweepTest, SoftenWorksWithoutAnActiveStoppingRule) {
  // A fixed-budget run (no target, no top-k) still honours the soften
  // token at wave boundaries — the serving degrade path relies on this
  // for plain sampled requests.
  const CountingGame game = NoisyWithNullPlayer();
  CancelSource soften;
  soften.Cancel();
  SamplingOptions options;
  options.num_samples = 4096;
  options.seed = 3;
  options.shard_size = 16;
  options.stop.soften = soften.token();
  const RunResult run = RunAllPlayers(game, options);
  EXPECT_TRUE(run.outcome.softened);
  EXPECT_LT(run.outcome.sweeps, options.num_samples);
  EXPECT_GT(run.outcome.sweeps, 0u);
}

TEST(AnytimeSweepTest, SinglePlayerEstimatorHonoursSoften) {
  const CountingGame game = NoisyWithNullPlayer();
  CancelSource soften;
  soften.Cancel();
  SamplingOptions options;
  options.num_samples = 4096;
  options.check_interval = 32;
  options.stop.soften = soften.token();
  auto estimate = EstimateShapleyForPlayer(game, 0, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->num_samples, 32u);  // one check interval
}

/// Top-k separation on the sweep driver: one sweep per shard, one wave
/// (and separation test) per `batch` sweeps at z = 2 once the k-th
/// player has 8 samples.
SamplingOptions TopKSampling(std::size_t k, std::size_t batch,
                             std::size_t max_samples) {
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

TEST(TopKAnytimeTest, BitIdenticalAcrossThreadCounts) {
  const CountingGame game = NoisyWithNullPlayer();
  // Players 1 and 2 tie at Shapley value 0.7 (0.5 + half the 0.4
  // interaction vs the plain 0.7 weight), so top-1 never separates;
  // top-2 = {1, 2} separates cleanly from player 0 at 0.5.
  SamplingOptions options =
      TopKSampling(2, /*batch=*/16, /*max_samples=*/2048);
  options.seed = 59;

  options.num_threads = 1;
  SweepOutcome serial_outcome;
  auto serial = EstimateShapleyAllPlayers(game, options, &serial_outcome);
  ASSERT_TRUE(serial.ok());
  const std::vector<std::size_t> ranking = Ranking(*serial);
  EXPECT_TRUE(serial_outcome.separated);
  EXPECT_LT(serial_outcome.sweeps, options.num_samples);
  EXPECT_TRUE((ranking[0] == 1u && ranking[1] == 2u) ||
              (ranking[0] == 2u && ranking[1] == 1u));

  for (const std::size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    SweepOutcome outcome;
    auto parallel = EstimateShapleyAllPlayers(game, options, &outcome);
    ASSERT_TRUE(parallel.ok());
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(ranking, Ranking(*parallel));
    EXPECT_EQ(serial_outcome.sweeps, outcome.sweeps);
    EXPECT_EQ(serial_outcome.separated, outcome.separated);
    ASSERT_EQ(serial->size(), parallel->size());
    for (std::size_t p = 0; p < serial->size(); ++p) {
      EXPECT_EQ((*serial)[p].value, (*parallel)[p].value);
      EXPECT_EQ((*serial)[p].num_samples, (*parallel)[p].num_samples);
    }
  }
}

TEST(TopKAnytimeTest, SoftenReturnsPartialRanking) {
  const CountingGame game = NoisyWithNullPlayer();
  CancelSource soften;
  soften.Cancel();
  SamplingOptions options =
      TopKSampling(1, /*batch=*/16, /*max_samples=*/2048);
  options.seed = 59;
  // Keep separation from firing on the very first round so the soften
  // path is what ends the run.
  options.stop.z = 1000.0;
  options.stop.soften = soften.token();
  SweepOutcome outcome;
  auto result = EstimateShapleyAllPlayers(game, options, &outcome);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(outcome.softened);
  EXPECT_FALSE(outcome.separated);
  EXPECT_EQ(outcome.sweeps, options.check_interval);  // one round
  EXPECT_EQ(result->size(), 4u);
}

TEST(StratifiedAnytimeTest, BitIdenticalAcrossThreadCounts) {
  const CountingGame game = NoisyWithNullPlayer();
  SamplingOptions options;
  options.num_samples = 512;
  options.seed = 83;

  options.num_threads = 1;
  // Player 1's marginal depends on whether player 0 precedes it, so the
  // per-stratum variances differ and the Neyman phase is non-trivial.
  auto serial = EstimateShapleyStratified(game, 1, options);
  ASSERT_TRUE(serial.ok());

  for (const std::size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    auto parallel = EstimateShapleyStratified(game, 1, options);
    ASSERT_TRUE(parallel.ok());
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(serial->value, parallel->value);
    EXPECT_EQ(serial->std_error, parallel->std_error);
    EXPECT_EQ(serial->num_samples, parallel->num_samples);
  }
}

TEST(StratifiedAnytimeTest, NeymanBeatsEvenSplitOnSkewedGame) {
  // A game whose marginal variance is concentrated in mid-size
  // coalitions: Neyman allocation should not hurt — its std_error stays
  // at or below a (deterministic) even-allocation baseline's on average.
  // Here we just pin that the allocation is deterministic and the
  // estimate is close to the known exact value for player 2.
  const CountingGame game = NoisyWithNullPlayer();
  SamplingOptions options;
  options.num_samples = 2048;
  options.seed = 83;
  auto a = EstimateShapleyStratified(game, 2, options);
  auto b = EstimateShapleyStratified(game, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->value, b->value);  // deterministic end to end
  // Player 2's weight is additive (0.7, no interactions touch it), so
  // its exact Shapley value is 0.7.
  EXPECT_NEAR(a->value, 0.7, 0.05);
}

}  // namespace
}  // namespace trex::shap
