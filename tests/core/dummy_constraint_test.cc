// Canonical constraint-subset memo keys (core/repair_game.h): lookups
// hold a target's influence-graph dummy constraints present and the
// grand coalition is served from the reference repair. Both only drop
// repair runs, so every constraint-side result must be bit-identical to
// an engine whose backend hides its influence graph (no dummies), and
// exact Shapley must keep the efficiency axiom on every backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "data/errors.h"
#include "data/generator.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"
#include "table/diff.h"

namespace trex {
namespace {

/// Forwards `Repair` but hides `InfluenceGraph`, so the box treats the
/// backend as a black box: no dummy constraints, every subset runs.
class HiddenGraphAlgorithm : public repair::RepairAlgorithm {
 public:
  explicit HiddenGraphAlgorithm(
      std::shared_ptr<const repair::RepairAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name() + "-hidden"; }

  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override {
    return inner_->Repair(dcs, dirty);
  }

 private:
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
};

std::vector<std::shared_ptr<const repair::RepairAlgorithm>> AllBackends() {
  return {std::make_shared<repair::FdRepair>(), repair::MakeAlgorithm1(),
          std::make_shared<repair::HolisticRepair>(),
          std::make_shared<repair::HoloCleanRepair>()};
}

struct World {
  Table dirty;
  dc::DcSet dcs;
};

/// A 30-row generated soccer world with swap, typo and missing errors
/// over every column.
World MakeWorld(std::uint64_t seed) {
  auto generated = data::GenerateSoccer({.num_rows = 30, .seed = seed});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.1;
  inject.seed = seed + 1;
  return World{data::InjectErrors(generated.clean, inject).dirty,
               std::move(generated.dcs)};
}

ExplainRequest Request(CellRef target, ExplainKind kind) {
  ExplainRequest request;
  request.target = target;
  request.kind = kind;
  return request;
}

/// The constraint-side requests for one target: exact Shapley, exact
/// Banzhaf, sampled Shapley, interactions and removal sets.
std::vector<ExplainRequest> ConstraintRequests(CellRef target) {
  std::vector<ExplainRequest> requests;
  requests.push_back(Request(target, ExplainKind::kConstraints));
  ExplainRequest banzhaf = Request(target, ExplainKind::kConstraints);
  banzhaf.constraints.use_banzhaf = true;
  requests.push_back(banzhaf);
  ExplainRequest sampled = Request(target, ExplainKind::kConstraints);
  sampled.constraints.max_exact_players = 0;
  sampled.constraints.num_samples = 64;
  sampled.constraints.seed = 5;
  requests.push_back(sampled);
  requests.push_back(Request(target, ExplainKind::kInteractions));
  ExplainRequest removal = Request(target, ExplainKind::kRemovalSets);
  removal.max_removal_set_size = 4;
  requests.push_back(removal);
  return requests;
}

void ExpectBitIdentical(const ExplainResult& a, const ExplainResult& b) {
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation.has_value()) {
    const Explanation& x = *a.explanation;
    const Explanation& y = *b.explanation;
    ASSERT_EQ(x.ranked.size(), y.ranked.size());
    for (std::size_t i = 0; i < x.ranked.size(); ++i) {
      EXPECT_EQ(x.ranked[i].label, y.ranked[i].label);
      EXPECT_EQ(x.ranked[i].shapley, y.ranked[i].shapley)
          << x.ranked[i].label;
      EXPECT_EQ(x.ranked[i].std_error, y.ranked[i].std_error)
          << x.ranked[i].label;
      EXPECT_EQ(x.ranked[i].num_samples, y.ranked[i].num_samples);
    }
    EXPECT_EQ(x.method, y.method);
  }
  ASSERT_EQ(a.interactions.size(), b.interactions.size());
  for (std::size_t i = 0; i < a.interactions.size(); ++i) {
    EXPECT_EQ(a.interactions[i].label_a, b.interactions[i].label_a);
    EXPECT_EQ(a.interactions[i].label_b, b.interactions[i].label_b);
    EXPECT_EQ(a.interactions[i].interaction, b.interactions[i].interaction);
  }
  EXPECT_EQ(a.removal_sets, b.removal_sets);
  EXPECT_EQ(a.sweeps, b.sweeps);
}

class DummyConstraintTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DummyConstraintTest, MatchesHiddenGraphEngineBitForBit) {
  const World world = MakeWorld(GetParam());
  for (const auto& backend : AllBackends()) {
    SCOPED_TRACE(backend->name() + " seed " + std::to_string(GetParam()));
    Engine engine(backend, world.dcs, world.dirty);
    Engine hidden(std::make_shared<HiddenGraphAlgorithm>(backend), world.dcs,
                  world.dirty);
    ASSERT_TRUE(engine.EnsureRepair().ok());
    auto repaired = DiffTables(world.dirty, engine.reference_clean());
    ASSERT_TRUE(repaired.ok() && !repaired->empty());
    for (const RepairedCell& target : *repaired) {
      for (const ExplainRequest& request : ConstraintRequests(target.cell)) {
        SCOPED_TRACE(target.cell.ToString() + " " +
                     ExplainKindToString(request.kind));
        auto canonical = engine.Explain(request);
        auto uncanonical = hidden.Explain(request);
        ASSERT_TRUE(canonical.ok()) << canonical.status();
        ASSERT_TRUE(uncanonical.ok()) << uncanonical.status();
        ExpectBitIdentical(*canonical, *uncanonical);
      }
    }
    // Same answers from fewer repair runs when the backend exposes a
    // graph; the hidden-graph engine still saves the grand coalition.
    if (backend->InfluenceGraph(world.dcs, world.dirty.schema())) {
      EXPECT_LT(engine.num_algorithm_calls(), hidden.num_algorithm_calls());
    } else {
      EXPECT_EQ(engine.num_algorithm_calls(), hidden.num_algorithm_calls());
    }
    EXPECT_LE(hidden.num_algorithm_calls(),
              std::size_t{1} << world.dcs.size());
  }
}

TEST_P(DummyConstraintTest, ExactShapleySumsToGrandMinusEmpty) {
  // The efficiency axiom: sum_i phi_i = v(N) - v(empty), with v(N) = 1
  // for a repaired target and v(empty) read from a direct run of the
  // backend with no constraints, outside the memo.
  const World world = MakeWorld(GetParam());
  for (const auto& backend : AllBackends()) {
    SCOPED_TRACE(backend->name() + " seed " + std::to_string(GetParam()));
    Engine engine(backend, world.dcs, world.dirty);
    ASSERT_TRUE(engine.EnsureRepair().ok());
    const Table& clean = engine.reference_clean();
    auto empty = backend->Repair(world.dcs.Subset(0), world.dirty);
    ASSERT_TRUE(empty.ok()) << empty.status();
    auto repaired = DiffTables(world.dirty, clean);
    ASSERT_TRUE(repaired.ok());
    for (const RepairedCell& target : *repaired) {
      auto result =
          engine.Explain(Request(target.cell, ExplainKind::kConstraints));
      ASSERT_TRUE(result.ok()) << result.status();
      const double v_empty =
          CellRepairedTo(*empty, clean, target.cell) ? 1 : 0;
      EXPECT_NEAR(result->explanation->TotalAttribution(), 1.0 - v_empty,
                  1e-12)
          << target.cell.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DummyConstraintTest,
                         ::testing::Values(3, 17, 29));

}  // namespace
}  // namespace trex
