// Verifies every numeric claim in the paper against this implementation.
//
// Each test cites the claim it checks. Together these pin the
// reproduction to the paper: Figure 1 (the DC Shapley values), Figure 2
// (the repair), Example 2.2 (C1 gates the City repair), Example 2.3 (the
// subset arithmetic), Example 2.4 (cell-ranking claims and the coalition
// counts), and Example 2.5 / §2.3 (the sampling estimator).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/engine.h"
#include "core/repair_game.h"
#include "core/shapley_exact.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

namespace trex {
namespace {

std::shared_ptr<repair::RuleRepair> Alg() {
  static std::shared_ptr<repair::RuleRepair> alg = repair::MakeAlgorithm1();
  return alg;
}

/// Serves `request` about t5[Country] on a fresh engine over `dcs`.
Result<ExplainResult> ExplainTarget(dc::DcSet dcs, ExplainRequest request) {
  Engine engine(Alg(), std::move(dcs), data::SoccerDirtyTable());
  request.target = data::SoccerTargetCell();
  return engine.Explain(request);
}

/// The coalition `present` over T^d as a write set: every other cell is
/// absent, i.e. nulled (paper §2.2).
std::vector<CellWrite> NullAllBut(const Table& dirty,
                                  const std::set<CellRef>& present) {
  std::vector<CellWrite> writes;
  for (const CellRef& cell : dirty.AllCells()) {
    if (present.count(cell) == 0) writes.push_back({cell, Value::Null()});
  }
  return writes;
}

std::map<std::string, double> ByLabel(const Explanation& ex) {
  std::map<std::string, double> out;
  for (const PlayerScore& p : ex.ranked) out[p.label] = p.shapley;
  return out;
}

std::map<std::string, double> Constraints() {
  auto result = ExplainTarget(data::SoccerConstraints(), {});
  EXPECT_TRUE(result.ok()) << result.status();
  return ByLabel(*result->explanation);
}

// Figure 1: Shap(C1) = 1/6, Shap(C2) = 1/6, Shap(C3) = 2/3, Shap(C4) = 0.
TEST(PaperClaims, Figure1ShapleyValues) {
  const auto values = Constraints();
  EXPECT_NEAR(values.at("C1"), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(values.at("C2"), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(values.at("C3"), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(values.at("C4"), 0.0, 1e-12);
}

// Figure 2: the repair changes exactly t5[City] -> Madrid and
// t5[Country] -> Spain.
TEST(PaperClaims, Figure2Repair) {
  auto clean = Alg()->Repair(data::SoccerConstraints(),
                             data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, data::SoccerCleanTable());
}

// Example 2.2: Alg|t5[City]({C1,C2,C3}, T^d) = 1 but
// Alg|t5[City]({C2,C3}, T^d) = 0.
TEST(PaperClaims, Example22CityRepairGatedOnC1) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerCell(5, "City"));
  ASSERT_TRUE(box.ok());
  EXPECT_TRUE(box->target_was_repaired());
  EXPECT_TRUE(box->EvalConstraintSubset(0b0111));   // {C1,C2,C3}
  EXPECT_FALSE(box->EvalConstraintSubset(0b0110));  // {C2,C3}
}

// Example 2.3: Algorithm 1 repairs t5[Country] exactly for subsets
// containing {C1,C2} or C3; C1's marginal pairs are S={C2} and
// S={C2,C4} with weight 1/12 each.
TEST(PaperClaims, Example23CharacteristicFunction) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  for (std::uint64_t mask = 0; mask < 16; ++mask) {
    const bool expected =
        ((mask & 0b11) == 0b11) || ((mask & 0b100) != 0);
    EXPECT_EQ(box->EvalConstraintSubset(mask), expected)
        << "mask " << mask;
  }
}

// Example 2.3's derivation: exactly 5 subsets of {C1,C2,C3} repair the
// cell ({C3}, {C1,C2}, {C1,C3}, {C2,C3}, {C1,C2,C3}); 4 contain C3.
TEST(PaperClaims, Example23FiveRepairingSubsets) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  int repairing = 0;
  int with_c3 = 0;
  for (std::uint64_t mask = 0; mask < 8; ++mask) {  // subsets of C1..C3
    if (box->EvalConstraintSubset(mask)) {
      ++repairing;
      if (mask & 0b100) ++with_c3;
    }
  }
  EXPECT_EQ(repairing, 5);
  EXPECT_EQ(with_c3, 4);
}

// Example 2.4's combinatorics: out of the 8 support cells there are
// 2^8 - 3^4 = 175 coalitions containing at least one complete
// (League, Country) pair, and 36 - 8 - 1 = 27 remaining cells.
TEST(PaperClaims, Example24CoalitionCounts) {
  int with_pair = 0;
  for (int mask = 0; mask < 256; ++mask) {
    bool pair = false;
    for (int i = 0; i < 4; ++i) {
      const int pair_bits = 0b11 << (2 * i);
      if ((mask & pair_bits) == pair_bits) pair = true;
    }
    if (pair) ++with_pair;
  }
  EXPECT_EQ(with_pair, 175);
  EXPECT_EQ(256 - 81, 175);  // 2^8 - 3^4
  EXPECT_EQ(data::SoccerDirtyTable().num_cells() - 8 - 1, 27u);
}

// Example 2.4 (and 1.1): under the paper's null-replacement definition,
// t5[League] is the top-ranked cell, t5[League] > t6[City], and
// t1[Place] contributes 0.
TEST(PaperClaims, Example24CellRanking) {
  ExplainRequest request;
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = 800;
  request.cells.seed = 61;
  request.cells.prune = false;  // include t1[Place] so we can check it
  auto result = ExplainTarget(data::SoccerConstraints(), request);
  ASSERT_TRUE(result.ok()) << result.status();
  const Explanation& ex = *result->explanation;
  const auto values = ByLabel(ex);

  EXPECT_EQ(ex.ranked[0].label, "t5[League]");
  EXPECT_GT(values.at("t5[League]"), values.at("t6[City]"));
  EXPECT_NEAR(values.at("t1[Place]"), 0.0, 1e-12);
}

// Example 2.4's support-pair argument, checked mechanically: the
// coalition {ti[League], ti[Country], t5[League]} repairs the target for
// every i in {1,2,3,6}.
TEST(PaperClaims, Example24SupportPairsRepair) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const Table dirty = data::SoccerDirtyTable();
  for (std::size_t i : {1u, 2u, 3u, 6u}) {
    const std::vector<CellWrite> coalition = NullAllBut(
        dirty, {data::SoccerCell(i, "League"), data::SoccerCell(i, "Country"),
                data::SoccerCell(5, "League")});
    EXPECT_TRUE(box->EvalPerturbation(coalition)) << "support tuple t" << i;
  }
}

// Example 2.4's C1+C2 path: {t3[Team], t3[City], t3[Country], t5[Team]}
// repairs the target with everything else nulled out.
TEST(PaperClaims, Example24C1C2CoalitionRepairs) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const Table dirty = data::SoccerDirtyTable();
  const std::vector<CellWrite> coalition = NullAllBut(
      dirty, {data::SoccerCell(3, "Team"), data::SoccerCell(3, "City"),
              data::SoccerCell(3, "Country"), data::SoccerCell(5, "Team")});
  EXPECT_TRUE(box->EvalPerturbation(coalition));
}

// §2.3 / Example 2.5: the sampling estimator converges — its estimate of
// a constraint game's Shapley value approaches the exact value as m
// grows.
TEST(PaperClaims, Section23SamplingConvergence) {
  auto box = BlackBoxRepair::Make(Alg().get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  ConstraintGame game(&*box);

  double previous_error = 1e9;
  for (std::size_t m : {16u, 256u, 4096u}) {
    shap::SamplingOptions options;
    options.num_samples = m;
    options.seed = 67;
    auto estimate = shap::EstimateShapleyForPlayer(game, 2, options);
    ASSERT_TRUE(estimate.ok());
    const double error = std::fabs(estimate->value - 2.0 / 3.0);
    EXPECT_LE(error, previous_error + 0.05);
    previous_error = error;
  }
  EXPECT_LE(previous_error, 0.03);
}

// §3: "the user can continue the process by changing the DCs or values
// in T^d" — removing the top-ranked DC changes the explanation.
TEST(PaperClaims, Section3IterationLoop) {
  const dc::DcSet without_c3 = data::SoccerConstraints().Without(2);
  auto result = ExplainTarget(without_c3, {});
  ASSERT_TRUE(result.ok());
  // With C3 gone, C1 and C2 carry the whole repair: 1/2 each.
  const auto values = ByLabel(*result->explanation);
  EXPECT_NEAR(values.at("C1"), 0.5, 1e-12);
  EXPECT_NEAR(values.at("C2"), 0.5, 1e-12);
  EXPECT_NEAR(values.at("C4"), 0.0, 1e-12);
}

}  // namespace
}  // namespace trex
