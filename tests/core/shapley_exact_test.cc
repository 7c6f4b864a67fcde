#include "core/shapley_exact.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/random.h"

namespace trex::shap {
namespace {

/// A game defined by an arbitrary function over coalition bitmasks.
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

TEST(ExactShapleyTest, EmptyGame) {
  LambdaGame game(0, [](std::uint64_t) { return 0.0; });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_TRUE(values->empty());
}

TEST(ExactShapleyTest, SinglePlayerGetsFullValue) {
  LambdaGame game(1, [](std::uint64_t mask) {
    return mask == 1 ? 7.0 : 0.0;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_DOUBLE_EQ((*values)[0], 7.0);
}

TEST(ExactShapleyTest, SymmetricPlayersShareEqually) {
  // v(S) = |S|^2: all players symmetric, Shapley = v(N)/n = n.
  const std::size_t n = 5;
  LambdaGame game(n, [](std::uint64_t mask) {
    const double s = static_cast<double>(std::popcount(mask));
    return s * s;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  for (double phi : *values) {
    EXPECT_NEAR(phi, static_cast<double>(n), 1e-9);
  }
}

TEST(ExactShapleyTest, DummyPlayerGetsZero) {
  // Player 2 never changes the value.
  LambdaGame game(3, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask & 0b011));
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[2], 0.0, 1e-12);
  EXPECT_NEAR((*values)[0], 1.0, 1e-12);
  EXPECT_NEAR((*values)[1], 1.0, 1e-12);
}

TEST(ExactShapleyTest, GloveGame) {
  // Classic: player 0 owns a left glove, players 1 and 2 own right
  // gloves; a pair is worth 1. Shapley: (2/3, 1/6, 1/6).
  LambdaGame game(3, [](std::uint64_t mask) {
    const bool left = mask & 0b001;
    const bool right = mask & 0b110;
    return left && right ? 1.0 : 0.0;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR((*values)[1], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR((*values)[2], 1.0 / 6.0, 1e-12);
}

TEST(ExactShapleyTest, WeightedMajorityGame) {
  // Weights (3, 2, 2), quota 4: any two players win, one cannot.
  // All three players are pivotal equally often: Shapley = 1/3 each.
  LambdaGame game(3, [](std::uint64_t mask) {
    const int w = 3 * ((mask >> 0) & 1) + 2 * ((mask >> 1) & 1) +
                  2 * ((mask >> 2) & 1);
    return w >= 4 ? 1.0 : 0.0;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR((*values)[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR((*values)[2], 1.0 / 3.0, 1e-12);
}

TEST(ExactShapleyTest, AirportGame) {
  // Airport game with costs (1, 2, 3): v(S) = max cost in S.
  // Shapley: phi_1 = 1/3, phi_2 = 1/3 + 1/2 = 5/6, phi_3 = 1/3 + 1/2 + 1
  // = 11/6.
  const double costs[] = {1.0, 2.0, 3.0};
  LambdaGame game(3, [&costs](std::uint64_t mask) {
    double best = 0;
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) best = std::max(best, costs[i]);
    }
    return best;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR((*values)[1], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR((*values)[2], 11.0 / 6.0, 1e-12);
}

TEST(ExactShapleyTest, RefusesOversizedGames) {
  LambdaGame game(30, [](std::uint64_t) { return 0.0; });
  auto values = ComputeExactShapley(game);
  EXPECT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExactShapleyTest, CapIsConfigurable) {
  LambdaGame game(5, [](std::uint64_t m) {
    return static_cast<double>(std::popcount(m));
  });
  ExactShapleyOptions options;
  options.max_players = 4;
  EXPECT_FALSE(ComputeExactShapley(game, options).ok());
  options.max_players = 5;
  EXPECT_TRUE(ComputeExactShapley(game, options).ok());
}

TEST(ExactShapleyTest, WalkCeilingHoldsWhateverTheCap) {
  // 2^64 coalitions: past the subset walk's fixed ceiling, so no caller
  // cap admits the game (the mask count would not even fit a size_t).
  LambdaGame game(64, [](std::uint64_t) { return 0.0; });
  ExactShapleyOptions options;
  options.max_players = 1000;
  auto values = ComputeExactShapley(game, options);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
}

TEST(PermutationOracleTest, RefusesLargeGames) {
  LambdaGame game(11, [](std::uint64_t) { return 0.0; });
  EXPECT_FALSE(ComputeExactShapleyByPermutations(game).ok());
}

// Property: the subset formula and the permutation enumeration agree on
// random games, and both satisfy the Shapley axioms.
class ShapleyAxiomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapleyAxiomTest, SubsetFormulaMatchesPermutationOracle) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.Index(5);  // 2..6 players
  // Random characteristic function with v(∅) = 0.
  std::vector<double> v(std::size_t{1} << n);
  v[0] = 0.0;
  for (std::size_t mask = 1; mask < v.size(); ++mask) {
    v[mask] = rng.UniformDouble() * 10.0 - 5.0;
  }
  LambdaGame game(n, [&v](std::uint64_t mask) { return v[mask]; });

  auto subset = ComputeExactShapley(game);
  auto perms = ComputeExactShapleyByPermutations(game);
  ASSERT_TRUE(subset.ok());
  ASSERT_TRUE(perms.ok());
  ASSERT_EQ(subset->size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*subset)[i], (*perms)[i], 1e-9) << "player " << i;
  }
}

TEST_P(ShapleyAxiomTest, EfficiencyAxiom) {
  Rng rng(GetParam() + 1000);
  const std::size_t n = 2 + rng.Index(5);
  std::vector<double> v(std::size_t{1} << n);
  v[0] = 0.0;
  for (std::size_t mask = 1; mask < v.size(); ++mask) {
    v[mask] = rng.UniformDouble() * 4.0;
  }
  LambdaGame game(n, [&v](std::uint64_t mask) { return v[mask]; });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  const double total =
      std::accumulate(values->begin(), values->end(), 0.0);
  EXPECT_NEAR(total, v.back(), 1e-9);  // sum = v(N) - v(∅)
}

TEST_P(ShapleyAxiomTest, LinearityAxiom) {
  Rng rng(GetParam() + 2000);
  const std::size_t n = 2 + rng.Index(4);
  const std::size_t size = std::size_t{1} << n;
  std::vector<double> v1(size), v2(size);
  v1[0] = v2[0] = 0.0;
  for (std::size_t mask = 1; mask < size; ++mask) {
    v1[mask] = rng.UniformDouble();
    v2[mask] = rng.UniformDouble();
  }
  LambdaGame g1(n, [&v1](std::uint64_t m) { return v1[m]; });
  LambdaGame g2(n, [&v2](std::uint64_t m) { return v2[m]; });
  LambdaGame sum(n, [&v1, &v2](std::uint64_t m) { return v1[m] + v2[m]; });

  auto s1 = ComputeExactShapley(g1);
  auto s2 = ComputeExactShapley(g2);
  auto ssum = ComputeExactShapley(sum);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(ssum.ok());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*ssum)[i], (*s1)[i] + (*s2)[i], 1e-9);
  }
}

TEST_P(ShapleyAxiomTest, SymmetryAxiom) {
  // Build a game symmetric in players 0 and 1: v depends only on
  // |S ∩ {0,1}| and S \ {0,1}.
  Rng rng(GetParam() + 3000);
  const std::size_t n = 3 + rng.Index(3);
  const std::size_t rest_size = std::size_t{1} << (n - 2);
  std::vector<std::vector<double>> v(3,
                                     std::vector<double>(rest_size, 0.0));
  for (int k = 0; k < 3; ++k) {
    for (std::size_t rest = 0; rest < rest_size; ++rest) {
      if (k == 0 && rest == 0) continue;  // v(∅) = 0
      v[k][rest] = rng.UniformDouble() * 3.0;
    }
  }
  LambdaGame game(n, [&v](std::uint64_t mask) {
    const int k = static_cast<int>((mask & 1) + ((mask >> 1) & 1));
    return v[k][mask >> 2];
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], (*values)[1], 1e-9);
}

TEST_P(ShapleyAxiomTest, MonotoneGameHasNonNegativeValues) {
  // v(S) = 1 if S contains a random winning subset, else 0 — monotone.
  Rng rng(GetParam() + 4000);
  const std::size_t n = 3 + rng.Index(4);
  const std::uint64_t winning =
      rng.UniformUint64((std::uint64_t{1} << n) - 1) + 1;
  LambdaGame game(n, [winning](std::uint64_t mask) {
    return (mask & winning) == winning ? 1.0 : 0.0;
  });
  auto values = ComputeExactShapley(game);
  ASSERT_TRUE(values.ok());
  for (double phi : *values) EXPECT_GE(phi, -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapleyAxiomTest,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- Sharded 2^n subset walk (core/subset_walk.h) ---

TEST(ShardedExactTest, ShapleyBitIdenticalForEveryThreadCount) {
  // A deterministic, thread-safe game whose values exercise non-trivial
  // floating-point accumulation. 10 players = 1024 masks, several
  // shards' worth of work.
  const std::size_t n = 10;
  LambdaGame game(n, [](std::uint64_t mask) {
    const double s = static_cast<double>(std::popcount(mask));
    return s * s + 0.125 * static_cast<double>(mask % 7);
  });
  auto serial = ComputeExactShapley(game);
  ASSERT_TRUE(serial.ok());
  for (std::size_t threads : {2u, 4u, 7u}) {
    ExactShapleyOptions options;
    options.num_threads = threads;
    auto sharded = ComputeExactShapley(game, options);
    ASSERT_TRUE(sharded.ok());
    ASSERT_EQ(sharded->size(), serial->size());
    for (std::size_t i = 0; i < n; ++i) {
      // Bit-identical, not approximately equal: shards evaluate
      // disjoint mask ranges and each player accumulates serially in
      // mask order.
      EXPECT_EQ((*sharded)[i], (*serial)[i])
          << "player " << i << ", " << threads << " threads";
    }
  }
}

TEST(ShardedExactTest, BanzhafBitIdenticalForEveryThreadCount) {
  LambdaGame game(9, [](std::uint64_t mask) {
    return static_cast<double>((mask * 2654435761u) % 97) / 97.0;
  });
  auto serial = ComputeExactBanzhaf(game);
  ASSERT_TRUE(serial.ok());
  ExactShapleyOptions options;
  options.num_threads = 4;
  auto sharded = ComputeExactBanzhaf(game, options);
  ASSERT_TRUE(sharded.ok());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*sharded)[i], (*serial)[i]) << "player " << i;
  }
}

TEST(ShardedExactTest, ReusesACallerPool) {
  LambdaGame game(8, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask));
  });
  ThreadPool pool(4);
  ExactShapleyOptions options;
  options.num_threads = 4;
  options.pool = &pool;
  auto values = ComputeExactShapley(game, options);
  ASSERT_TRUE(values.ok());
  auto serial = ComputeExactShapley(game);
  ASSERT_TRUE(serial.ok());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*values)[i], (*serial)[i]);
  }
}

TEST(ShardedExactTest, CancelPollSurvivesSharding) {
  CancelSource source;
  source.Cancel();
  LambdaGame game(10, [](std::uint64_t) { return 1.0; });
  ExactShapleyOptions options;
  options.num_threads = 4;
  options.cancel = source.token();
  auto values = ComputeExactShapley(game, options);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ComputeExactBanzhaf(game, options).status().code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace trex::shap
