// Tests for counterfactual removal sets and exact Banzhaf values.

#include "core/counterfactual.h"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <map>

#include "core/engine.h"
#include "core/shapley_exact.h"
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

/// A request about the running example's target cell.
trex::ExplainRequest SoccerRequest(trex::ExplainKind kind,
                                   trex::ConstraintOptions options) {
  trex::ExplainRequest request;
  request.target = trex::data::SoccerTargetCell();
  request.kind = kind;
  request.constraints = options;
  return request;
}

/// Serves `request` on a fresh engine over the running example.
trex::Result<trex::ExplainResult> ExplainSoccer(
    const trex::ExplainRequest& request) {
  trex::Engine engine(trex::repair::MakeAlgorithm1(),
                      trex::data::SoccerConstraints(),
                      trex::data::SoccerDirtyTable());
  return engine.Explain(request);
}

TEST(RemovalSetsTest, SingleNecessaryPlayer) {
  // v = 1 iff player 0 present: the only minimal removal set is {0}.
  LambdaGame game(3, [](std::uint64_t mask) {
    return (mask & 1) ? 1.0 : 0.0;
  });
  auto sets = MinimalRemovalSets(game);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 1u);
  EXPECT_EQ((*sets)[0], (std::vector<std::size_t>{0}));
}

TEST(RemovalSetsTest, DisjunctionNeedsBothRemoved) {
  // v = 1 iff player 0 or player 1 present: minimal removal = {0, 1}.
  LambdaGame game(3, [](std::uint64_t mask) {
    return (mask & 0b11) ? 1.0 : 0.0;
  });
  auto sets = MinimalRemovalSets(game);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 1u);
  EXPECT_EQ((*sets)[0], (std::vector<std::size_t>{0, 1}));
}

TEST(RemovalSetsTest, MinimalityPrunesSupersets) {
  // v = 1 iff player 0 present. {0,1} also destroys v but is not
  // minimal and must not be reported.
  LambdaGame game(4, [](std::uint64_t mask) {
    return (mask & 1) ? 1.0 : 0.0;
  });
  auto sets = MinimalRemovalSets(game);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 1u);
  EXPECT_EQ((*sets)[0].size(), 1u);
}

TEST(RemovalSetsTest, SizeCapRespected) {
  // v = 1 iff any player present (n = 4): minimal removal set has size
  // 4, beyond the default cap of 3 -> empty result, no error.
  LambdaGame game(4, [](std::uint64_t mask) {
    return mask != 0 ? 1.0 : 0.0;
  });
  CounterfactualOptions options;
  options.max_set_size = 3;
  auto sets = MinimalRemovalSets(game, options);
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->empty());
  options.max_set_size = 4;
  sets = MinimalRemovalSets(game, options);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->size(), 1u);
}

TEST(RemovalSetsTest, ZeroGrandCoalitionRejected) {
  LambdaGame game(2, [](std::uint64_t) { return 0.0; });
  EXPECT_FALSE(MinimalRemovalSets(game).ok());
}

TEST(RemovalSetsTest, PaperExampleRemovalSets) {
  // Running example: the repair of t5[Country] survives unless C3 is
  // removed together with C1 or C2.
  auto result = ExplainSoccer(
      SoccerRequest(trex::ExplainKind::kRemovalSets, {}));
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& sets = result->removal_sets;
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::vector<std::string>{"C1", "C3"}));
  EXPECT_EQ(sets[1], (std::vector<std::string>{"C2", "C3"}));
}

TEST(BanzhafTest, MatchesShapleyOnSymmetricGames) {
  // For the unanimity game on 2 of 2 players both indices give 1/2...
  // actually Banzhaf of v = 1 iff both present: each player pivotal in
  // 1 of 2 coalitions -> 1/2; Shapley also 1/2.
  LambdaGame game(2, [](std::uint64_t mask) {
    return mask == 0b11 ? 1.0 : 0.0;
  });
  auto banzhaf = ComputeExactBanzhaf(game);
  auto shapley = ComputeExactShapley(game);
  ASSERT_TRUE(banzhaf.ok());
  ASSERT_TRUE(shapley.ok());
  EXPECT_NEAR((*banzhaf)[0], 0.5, 1e-12);
  EXPECT_NEAR((*banzhaf)[0], (*shapley)[0], 1e-12);
}

TEST(BanzhafTest, DiffersFromShapleyInGeneral) {
  // Glove game: Shapley = (2/3, 1/6, 1/6); Banzhaf: player 0 pivotal in
  // {1},{2},{1,2} -> 3/4; players 1,2 pivotal only in {0} -> 1/4.
  LambdaGame game(3, [](std::uint64_t mask) {
    const bool left = mask & 0b001;
    const bool right = mask & 0b110;
    return left && right ? 1.0 : 0.0;
  });
  auto banzhaf = ComputeExactBanzhaf(game);
  ASSERT_TRUE(banzhaf.ok());
  EXPECT_NEAR((*banzhaf)[0], 0.75, 1e-12);
  EXPECT_NEAR((*banzhaf)[1], 0.25, 1e-12);
  EXPECT_NEAR((*banzhaf)[2], 0.25, 1e-12);
  // No efficiency: the values sum to 1.25, not v(N) = 1.
}

TEST(BanzhafTest, DummyPlayerGetsZero) {
  LambdaGame game(3, [](std::uint64_t mask) {
    return static_cast<double>(std::popcount(mask & 0b011));
  });
  auto banzhaf = ComputeExactBanzhaf(game);
  ASSERT_TRUE(banzhaf.ok());
  EXPECT_NEAR((*banzhaf)[2], 0.0, 1e-12);
}

TEST(BanzhafTest, CapAndEmptyGame) {
  LambdaGame empty(0, [](std::uint64_t) { return 0.0; });
  auto none = ComputeExactBanzhaf(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  LambdaGame big(25, [](std::uint64_t) { return 0.0; });
  EXPECT_FALSE(ComputeExactBanzhaf(big).ok());
}

TEST(BanzhafTest, ConstraintRequestBanzhafMode) {
  // Running example under Banzhaf: C3 pivotal in the 4 subsets without
  // {C1,C2} complete (of 8) -> 6/8? Count: v(S∪C3)-v(S) = 1 unless
  // {C1,C2} ⊆ S: subsets of {C1,C2,C4}: 8 total, 2 contain both C1,C2
  // -> pivotal in 6 -> 6/8 = 0.75. C1 pivotal iff C2 ∈ S, C3 ∉ S:
  // S ∈ {{C2},{C2,C4}} -> 2/8 = 0.25. C4 never pivotal -> 0.
  trex::ConstraintOptions options;
  options.use_banzhaf = true;
  auto result =
      ExplainSoccer(SoccerRequest(trex::ExplainKind::kConstraints, options));
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& ex = result->explanation;
  EXPECT_EQ(ex->method, "exact(banzhaf)");
  std::map<std::string, double> values;
  for (const auto& p : ex->ranked) values[p.label] = p.shapley;
  EXPECT_NEAR(values.at("C3"), 0.75, 1e-12);
  EXPECT_NEAR(values.at("C1"), 0.25, 1e-12);
  EXPECT_NEAR(values.at("C2"), 0.25, 1e-12);
  EXPECT_NEAR(values.at("C4"), 0.0, 1e-12);
  // Same ranking as Shapley here, different magnitudes.
  EXPECT_EQ(ex->ranked[0].label, "C3");
}

TEST(BanzhafTest, BanzhafWithSamplingRejected) {
  trex::ConstraintOptions options;
  options.use_banzhaf = true;
  options.max_exact_players = 0;  // the sampling path
  auto result =
      ExplainSoccer(SoccerRequest(trex::ExplainKind::kConstraints, options));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), trex::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("exact-only"), std::string::npos);
}

}  // namespace
}  // namespace trex::shap
