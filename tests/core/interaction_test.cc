#include "core/interaction.h"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <map>

#include "core/engine.h"
#include "core/repair_game.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

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

/// Serves a kInteractions request on a fresh engine over the running
/// example's table and Algorithm 1, attributing over `dcs`.
trex::Result<trex::ExplainResult> ExplainInteractions(trex::dc::DcSet dcs,
                                                      trex::CellRef target) {
  trex::Engine engine(trex::repair::MakeAlgorithm1(), std::move(dcs),
                      trex::data::SoccerDirtyTable());
  trex::ExplainRequest request;
  request.target = target;
  request.kind = trex::ExplainKind::kInteractions;
  return engine.Explain(request);
}

TEST(InteractionTest, PureComplementPair) {
  // v = 1 iff both players present: I(0,1) should be 1 (n = 2 and the
  // only term is v({0,1}) - v({0}) - v({1}) + v(∅) = 1).
  LambdaGame game(2, [](std::uint64_t mask) {
    return mask == 0b11 ? 1.0 : 0.0;
  });
  auto value = ComputeShapleyInteraction(game, 0, 1);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(*value, 1.0, 1e-12);
}

TEST(InteractionTest, PureSubstitutePair) {
  // v = 1 iff at least one present: marginal of the second player
  // vanishes, so I(0,1) = -1.
  LambdaGame game(2, [](std::uint64_t mask) {
    return mask != 0 ? 1.0 : 0.0;
  });
  auto value = ComputeShapleyInteraction(game, 0, 1);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(*value, -1.0, 1e-12);
}

TEST(InteractionTest, AdditiveGameHasZeroInteractions) {
  // v(S) = Σ weights of members: no synergies anywhere.
  LambdaGame game(4, [](std::uint64_t mask) {
    double total = 0;
    const double w[] = {1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < 4; ++i) {
      if (mask & (1u << i)) total += w[i];
    }
    return total;
  });
  auto all = ComputeShapleyInteractions(game);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 6u);
  for (const Interaction& interaction : *all) {
    EXPECT_NEAR(interaction.value, 0.0, 1e-12);
  }
}

TEST(InteractionTest, DummyPlayerHasZeroInteractions) {
  // Player 2 never matters; all its pairs must be 0.
  LambdaGame game(3, [](std::uint64_t mask) {
    return (mask & 0b11) == 0b11 ? 1.0 : 0.0;
  });
  auto all = ComputeShapleyInteractions(game);
  ASSERT_TRUE(all.ok());
  for (const Interaction& interaction : *all) {
    if (interaction.player_a == 2 || interaction.player_b == 2) {
      EXPECT_NEAR(interaction.value, 0.0, 1e-12);
    }
  }
}

TEST(InteractionTest, GloveGameSigns) {
  // Player 0: left glove; players 1, 2: right gloves. Left+right are
  // complements; the two rights are substitutes.
  LambdaGame game(3, [](std::uint64_t mask) {
    const bool left = mask & 0b001;
    const bool right = mask & 0b110;
    return left && right ? 1.0 : 0.0;
  });
  auto all = ComputeShapleyInteractions(game);
  ASSERT_TRUE(all.ok());
  std::map<std::pair<std::size_t, std::size_t>, double> by_pair;
  for (const Interaction& i : *all) {
    by_pair[{i.player_a, i.player_b}] = i.value;
  }
  EXPECT_GT(by_pair.at({0, 1}), 0.0);
  EXPECT_GT(by_pair.at({0, 2}), 0.0);
  EXPECT_LT(by_pair.at({1, 2}), 0.0);
}

TEST(InteractionTest, SmallGamesAndErrors) {
  LambdaGame tiny(1, [](std::uint64_t) { return 0.0; });
  auto none = ComputeShapleyInteractions(tiny);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  LambdaGame pair(2, [](std::uint64_t) { return 0.0; });
  EXPECT_FALSE(ComputeShapleyInteraction(pair, 0, 0).ok());
  EXPECT_FALSE(ComputeShapleyInteraction(pair, 0, 5).ok());

  LambdaGame big(25, [](std::uint64_t) { return 0.0; });
  EXPECT_FALSE(ComputeShapleyInteractions(big).ok());
}

TEST(InteractionTest, PaperPairReadingOfExample23) {
  // The running example: C1 and C2 are complements (each useless alone
  // for t5[Country], jointly sufficient); C3 substitutes for the pair;
  // C4 interacts with nothing.
  auto result = ExplainInteractions(trex::data::SoccerConstraints(),
                                    trex::data::SoccerTargetCell());
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& interactions = result->interactions;
  std::map<std::pair<std::string, std::string>, double> by_pair;
  for (const trex::InteractionScore& score : interactions) {
    by_pair[{score.label_a, score.label_b}] = score.interaction;
  }
  EXPECT_GT(by_pair.at({"C1", "C2"}), 0.0);   // complements
  EXPECT_LT(by_pair.at({"C1", "C3"}), 0.0);   // substitutes
  EXPECT_LT(by_pair.at({"C2", "C3"}), 0.0);
  EXPECT_NEAR(by_pair.at({"C1", "C4"}), 0.0, 1e-12);
  EXPECT_NEAR(by_pair.at({"C2", "C4"}), 0.0, 1e-12);
  EXPECT_NEAR(by_pair.at({"C3", "C4"}), 0.0, 1e-12);
  // Ranked by |interaction|: the C4 pairs come last.
  EXPECT_EQ(interactions.back().interaction, 0.0);
}

TEST(InteractionTest, ExplainInteractionsErrors) {
  // Unrepaired target rejected.
  auto bad = ExplainInteractions(trex::data::SoccerConstraints(),
                                 trex::data::SoccerCell(1, "Team"));
  EXPECT_FALSE(bad.ok());
  // Fewer than 2 constraints rejected.
  auto single = ExplainInteractions(
      trex::data::SoccerConstraints().Subset(0b0100),
      trex::data::SoccerTargetCell());
  EXPECT_FALSE(single.ok());
}

TEST(InteractionTest, ShardedWalkBitIdenticalForEveryThreadCount) {
  // Non-trivial interactions across 8 players; the 2^n materialization
  // and the per-pair accumulation both shard, and both must be
  // bit-identical to the serial run.
  LambdaGame game(8, [](std::uint64_t mask) {
    const double s = static_cast<double>(std::popcount(mask));
    return s * s * 0.25 + static_cast<double>(mask % 5);
  });
  auto serial = ComputeShapleyInteractions(game);
  ASSERT_TRUE(serial.ok());
  InteractionOptions options;
  options.num_threads = 4;
  auto sharded = ComputeShapleyInteractions(game, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->size(), serial->size());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*sharded)[i].player_a, (*serial)[i].player_a);
    EXPECT_EQ((*sharded)[i].player_b, (*serial)[i].player_b);
    EXPECT_EQ((*sharded)[i].value, (*serial)[i].value);
  }
}

TEST(InteractionTest, ShardedWalkHonorsCancellation) {
  CancelSource source;
  source.Cancel();
  LambdaGame game(8, [](std::uint64_t) { return 1.0; });
  InteractionOptions options;
  options.num_threads = 4;
  options.cancel = source.token();
  auto cancelled = ComputeShapleyInteractions(game, options);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace trex::shap
