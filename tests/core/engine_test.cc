#include "core/engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"
#include "table/diff.h"

namespace trex {
namespace {

std::shared_ptr<repair::RuleRepair> Alg() {
  static std::shared_ptr<repair::RuleRepair> alg = repair::MakeAlgorithm1();
  return alg;
}

/// The soccer table with one extra corruption (t3[City] misspelled), so
/// the reference repair fixes three cells: t3[City], t5[City],
/// t5[Country] — three distinct explanation targets for multi-target
/// tests.
Table ThreeTargetDirtyTable() {
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(3, "City"), Value("Madird"));
  return dirty;
}

std::vector<CellRef> ThreeTargets() {
  return {data::SoccerCell(3, "City"), data::SoccerCell(5, "City"),
          data::SoccerTargetCell()};
}

ExplainRequest ConstraintRequest(CellRef target) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  return request;
}

ExplainRequest CellsRequest(CellRef target, std::size_t num_samples,
                            std::uint64_t seed) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = num_samples;
  request.cells.seed = seed;
  return request;
}

/// Serves `requests` the way the service runs a coalesced group: one
/// `EnsureRepair`, then one `Explain` per request, in order, on one
/// engine.
std::vector<Result<ExplainResult>> ExplainAll(
    Engine& engine, const std::vector<ExplainRequest>& requests) {
  EXPECT_TRUE(engine.EnsureRepair().ok());
  std::vector<Result<ExplainResult>> results;
  for (const ExplainRequest& request : requests) {
    results.push_back(engine.Explain(request));
  }
  return results;
}

void ExpectSameExplanation(const Explanation& a, const Explanation& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].label, b.ranked[i].label);
    // Bit-identical, not approximately equal: sharded sampling derives
    // every shard's RNG stream from (seed, shard index) alone.
    EXPECT_EQ(a.ranked[i].shapley, b.ranked[i].shapley) << a.ranked[i].label;
    EXPECT_EQ(a.ranked[i].std_error, b.ranked[i].std_error)
        << a.ranked[i].label;
    EXPECT_EQ(a.ranked[i].num_samples, b.ranked[i].num_samples);
  }
  EXPECT_EQ(a.method, b.method);
}

TEST(EngineTest, BatchOfThreeTargetsRunsOneReferenceRepair) {
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  std::vector<ExplainRequest> requests;
  for (CellRef target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  ASSERT_TRUE(engine.EnsureRepair().ok());
  EXPECT_EQ(engine.num_algorithm_calls(), 1u);  // the reference repair
  const auto results = ExplainAll(engine, requests);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->explanation.has_value());
    EXPECT_FALSE(result->explanation->ranked.empty());
  }
  // A second round on the same engine must not repeat the reference run.
  const std::size_t calls = engine.num_algorithm_calls();
  ASSERT_TRUE(engine.EnsureRepair().ok());
  EXPECT_EQ(engine.num_algorithm_calls(), calls);
  for (const auto& result : ExplainAll(engine, requests)) {
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

TEST(EngineTest, ConstraintBatchSharesTheSubsetSweepAcrossTargets) {
  Engine engine(Alg(), data::SoccerConstraints(), ThreeTargetDirtyTable());
  std::vector<ExplainRequest> requests;
  for (CellRef target : ThreeTargets()) {
    requests.push_back(ConstraintRequest(target));
  }
  const auto results = ExplainAll(engine, requests);
  // Subset lookups hold a target's dummy constraints present (see
  // repair_game.h): C2-C4 cannot reach City, C4 cannot reach Country.
  // The City targets' 16 subsets collapse onto {C2,C3,C4} and the
  // grand coalition, which is seeded from the reference repair: t3[City]
  // pays 1 run, t5[City] reuses it. t5[Country]'s 8 subsets containing
  // C4 are the seed, {C2,C3,C4} (shared) and 6 fresh runs.
  EXPECT_EQ(engine.num_algorithm_calls(), 8u);
  const auto& first = results[0];
  const auto& second = results[1];
  const auto& third = results[2];
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  // The reference run went to `EnsureRepair`, not to any one request.
  EXPECT_EQ(first->algorithm_calls, 1u);
  EXPECT_EQ(second->algorithm_calls, 0u);
  EXPECT_EQ(third->algorithm_calls, 6u);
  // Hits on the seeded grand coalition are never cross-request hits;
  // the 8 + 2 lookups of {C2,C3,C4} that t3[City] paid for are.
  EXPECT_EQ(second->cross_request_hits, 8u);
  EXPECT_EQ(third->cross_request_hits, 2u);
  EXPECT_EQ(engine.num_cross_request_hits(), 10u);
  // The naive serial loop (fresh engine per target) would have paid
  // 2 + 2 + 8 calls; the shared engine pays 8.
}

TEST(EngineTest, BatchMatchesSerialExplainBitIdentically) {
  std::vector<ExplainRequest> requests;
  const std::vector<CellRef> targets = ThreeTargets();
  requests.push_back(CellsRequest(targets[0], 96, 11));
  requests.push_back(CellsRequest(targets[1], 96, 22));
  requests.push_back(CellsRequest(targets[2], 96, 33));

  // An eager `EnsureRepair` (the coalesced-group path) must not change
  // any value against plain `Explain` calls that repair on demand.
  Engine group_engine(Alg(), data::SoccerConstraints(),
                      ThreeTargetDirtyTable());
  const auto group = ExplainAll(group_engine, requests);

  Engine serial_engine(Alg(), data::SoccerConstraints(),
                       ThreeTargetDirtyTable());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto serial = serial_engine.Explain(requests[i]);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(group[i].ok());
    ExpectSameExplanation(*group[i]->explanation, *serial->explanation);
  }
}

TEST(EngineTest, SharedDirtyTableHasOneResidentCopy) {
  auto table = std::make_shared<const Table>(ThreeTargetDirtyTable());
  Engine engine(Alg(), data::SoccerConstraints(), table);
  // The engine aliases the caller's table rather than copying it...
  EXPECT_EQ(&engine.dirty(), table.get());
  ASSERT_TRUE(engine.EnsureRepair().ok());
  // ...and hands the same object to the black-box repair: use_count is
  // caller + engine + box, with no deep copies in between.
  EXPECT_EQ(engine.shared_dirty().get(), table.get());
  EXPECT_EQ(table.use_count(), 3);
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(EngineTest, MemoEntriesAreSmallerThanTheTable) {
  // Entries hold the output's diff against T^c, not table copies: on a
  // generated 120-row world a multi-target memo stays below one
  // dirty table's cell vector per entry.
  auto generated = data::GenerateSoccer({.num_rows = 120, .seed = 31});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.05;
  inject.seed = 32;
  const Table dirty = data::InjectErrors(generated.clean, inject).dirty;
  Engine engine(Alg(), generated.dcs, dirty);
  ASSERT_TRUE(engine.EnsureRepair().ok());
  auto repaired = DiffTables(dirty, engine.reference_clean());
  ASSERT_TRUE(repaired.ok());
  ASSERT_FALSE(repaired->empty());
  std::vector<ExplainRequest> requests;
  for (std::size_t i = 0; i < repaired->size() && i < 3; ++i) {
    requests.push_back(ConstraintRequest((*repaired)[i].cell));
  }
  for (const auto& result : ExplainAll(engine, requests)) {
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // Every call after the reference repair is one entry.
  const std::size_t entries = engine.num_algorithm_calls() - 1;
  ASSERT_GT(entries, 0u);
  EXPECT_LT(engine.approx_memo_bytes(),
            entries * dirty.num_cells() * sizeof(Value));
}

/// The same request with top-1 early stopping, checked every 32 sweeps,
/// under a budget of `max_sweeps`.
ExplainRequest WithTopOne(ExplainRequest request, std::size_t max_sweeps) {
  AnytimeOptions anytime;
  anytime.top_k = 1;
  anytime.check_interval = 32;
  anytime.max_sweeps = max_sweeps;
  request.anytime = anytime;
  return request;
}

TEST(EngineTest, ThreadCountDoesNotChangeSampledValues) {
  const std::vector<CellRef> targets = ThreeTargets();
  const ExplainRequest fixed = CellsRequest(targets[2], 128, 77);
  for (const ExplainRequest& request : {fixed, WithTopOne(fixed, 512)}) {
    SCOPED_TRACE(request.anytime.has_value() ? "top-1" : "fixed budget");
    std::vector<ExplainResult> per_thread_count;
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions options;
      options.num_threads = num_threads;
      Engine engine(Alg(), data::SoccerConstraints(),
                    ThreeTargetDirtyTable(), options);
      auto result = engine.Explain(request);
      ASSERT_TRUE(result.ok()) << result.status();
      per_thread_count.push_back(std::move(*result));
    }
    ExpectSameExplanation(*per_thread_count[0].explanation,
                          *per_thread_count[1].explanation);
    EXPECT_EQ(per_thread_count[0].sweeps, per_thread_count[1].sweeps);
    if (request.anytime.has_value()) {
      for (const ExplainResult& result : per_thread_count) {
        EXPECT_TRUE(result.early_stopped);
        EXPECT_LT(result.sweeps, 512u);
        // The method reports the budget that ran, not `num_samples`.
        EXPECT_NE(result.explanation->method.find("m=512,"),
                  std::string::npos);
      }
    }
  }
}

TEST(EngineTest, ThreadedConstraintSamplingMatchesSerial) {
  ExplainRequest fixed = ConstraintRequest(data::SoccerTargetCell());
  fixed.constraints.max_exact_players = 0;
  fixed.constraints.num_samples = 256;
  fixed.constraints.seed = 5;
  for (const ExplainRequest& request : {fixed, WithTopOne(fixed, 256)}) {
    SCOPED_TRACE(request.anytime.has_value() ? "top-1" : "fixed budget");
    std::vector<ExplainResult> runs;
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{3}}) {
      EngineOptions options;
      options.num_threads = num_threads;
      Engine engine(Alg(), data::SoccerConstraints(),
                    data::SoccerDirtyTable(), options);
      auto result = engine.Explain(request);
      ASSERT_TRUE(result.ok()) << result.status();
      runs.push_back(std::move(*result));
    }
    ExpectSameExplanation(*runs[0].explanation, *runs[1].explanation);
    EXPECT_EQ(runs[0].sweeps, runs[1].sweeps);
    if (request.anytime.has_value()) {
      for (const ExplainResult& result : runs) {
        EXPECT_TRUE(result.early_stopped);
        EXPECT_LT(result.sweeps, 256u);
        EXPECT_EQ(result.explanation->ranked[0].label, "C3");
      }
    }
  }
}

TEST(EngineTest, TopKCellsFindsLeagueFirstAndStopsEarly) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  // Budget cap 2000; top-1 separation stops far earlier, at a whole
  // 32-sweep shard.
  auto result = engine.Explain(
      WithTopOne(CellsRequest(data::SoccerTargetCell(), 2000, 97), 2000));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->explanation->ranked[0].label, "t5[League]");
  EXPECT_TRUE(result->early_stopped);
  EXPECT_EQ(result->sweeps, 160u);
  // Every player still gets an estimate row.
  EXPECT_EQ(result->explanation->ranked.size(), 24u);
}

TEST(EngineTest, CellsRejectUnrepairedTarget) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto result = engine.Explain(
      WithTopOne(CellsRequest(data::SoccerCell(1, "Team"), 64, 1), 64));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// `request` with a CI-width stop rule and no sweep cap, so the
/// per-kind `num_samples` is the budget.
ExplainRequest WithTargetWidth(ExplainRequest request, double width) {
  AnytimeOptions anytime;
  anytime.target_ci_half_width = width;
  request.anytime = anytime;
  return request;
}

void ExpectOneWaveUnderHugeBudget(const ExplainRequest& request) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto result = engine.Explain(request);
  ASSERT_TRUE(result.ok()) << result.status();
  // Marginals live in [-1, 1], so after one 256-sweep wave every normal
  // half-width is below 1.96 / 16 and the rule stops the run.
  EXPECT_EQ(result->sweeps, 256u);
  EXPECT_TRUE(result->early_stopped);
  double total = 0;
  for (const PlayerScore& score : result->explanation->ranked) {
    EXPECT_EQ(score.num_samples, 256u) << score.label;
    total += score.shapley;
  }
  EXPECT_GT(total, 0.0);
}

TEST(EngineTest, SizeMaxConstraintBudgetStopsAfterOneWave) {
  ExplainRequest request = ConstraintRequest(data::SoccerTargetCell());
  request.constraints.max_exact_players = 0;
  request.constraints.num_samples = std::numeric_limits<std::size_t>::max();
  ExpectOneWaveUnderHugeBudget(WithTargetWidth(request, 1.0));
}

TEST(EngineTest, SizeMaxCellBudgetStopsAfterOneWave) {
  ExpectOneWaveUnderHugeBudget(WithTargetWidth(
      CellsRequest(data::SoccerTargetCell(),
                   std::numeric_limits<std::size_t>::max(), 7),
      1.0));
}

/// A sampled cell request under malformed anytime options (the
/// request's override, or the engine default) must fail validation
/// before the reference repair is paid for.
void ExpectAnytimeRejected(const AnytimeOptions& anytime,
                           bool as_engine_default = false) {
  ExplainRequest request = CellsRequest(data::SoccerTargetCell(), 64, 3);
  EngineOptions options;
  if (as_engine_default) {
    options.anytime = anytime;
  } else {
    request.anytime = anytime;
  }
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable(),
                options);
  auto result = engine.Explain(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.has_repair());
  EXPECT_EQ(engine.num_algorithm_calls(), 0u);
}

TEST(EngineTest, NanTargetWidthRejected) {
  AnytimeOptions anytime;
  anytime.target_ci_half_width = std::numeric_limits<double>::quiet_NaN();
  ExpectAnytimeRejected(anytime);
}

TEST(EngineTest, NegativeTargetWidthRejected) {
  AnytimeOptions anytime;
  anytime.target_ci_half_width = -0.1;
  ExpectAnytimeRejected(anytime);
}

TEST(EngineTest, NonPositiveZRejected) {
  AnytimeOptions anytime;
  anytime.top_k = 1;
  anytime.z = 0.0;
  ExpectAnytimeRejected(anytime);
}

TEST(EngineTest, ZeroBernsteinDeltaInEngineDefaultRejected) {
  AnytimeOptions anytime;
  anytime.target_ci_half_width = 0.1;
  anytime.bound = shap::BoundKind::kBernstein;
  anytime.delta = 0.0;
  ExpectAnytimeRejected(anytime, /*as_engine_default=*/true);
}

TEST(EngineTest, UnitDeltaRejected) {
  AnytimeOptions anytime;
  anytime.target_ci_half_width = 0.1;
  anytime.bound = shap::BoundKind::kBernstein;
  anytime.delta = 1.0;
  ExpectAnytimeRejected(anytime);
}

TEST(EngineTest, ZeroTargetWidthStaysLegal) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto result = engine.Explain(
      WithTargetWidth(CellsRequest(data::SoccerTargetCell(), 64, 3), 0.0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sweeps, 64u);
}

TEST(EngineTest, SequentialExplainCallsShareTheEngineCache) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto first = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(first.ok());
  // 1 reference + 7 subsets: C4 cannot reach Country and is held
  // present, and the grand coalition is the reference repair.
  EXPECT_EQ(first->algorithm_calls, 8u);
  auto second =
      engine.Explain(ConstraintRequest(data::SoccerCell(5, "City")));
  ASSERT_TRUE(second.ok());
  // t5[City]'s subsets collapse onto {C2,C3,C4} (paid by the first
  // request) and the seeded grand coalition (not a cross-request hit).
  EXPECT_EQ(second->algorithm_calls, 0u);
  EXPECT_EQ(second->cache_hits, 16u);
  EXPECT_EQ(second->cross_request_hits, 8u);
  EXPECT_EQ(engine.num_algorithm_calls(), 8u);
}

TEST(EngineTest, SingleConstraintRequestHasNoCrossRequestHits) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(result.ok()) << result.status();
  // The 16 subsets map onto 8 canonical masks (C4 held present): 7
  // runs, 2 hits on the seeded grand coalition and 7 on entries this
  // request wrote itself - none written by another request.
  EXPECT_EQ(result->cache_hits, 9u);
  EXPECT_EQ(result->cross_request_hits, 0u);
  EXPECT_EQ(engine.num_cross_request_hits(), 0u);
}

TEST(EngineTest, PerRequestFailuresStayInTheirSlot) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  std::vector<ExplainRequest> requests;
  requests.push_back(ConstraintRequest(data::SoccerTargetCell()));
  requests.push_back(ConstraintRequest(data::SoccerCell(1, "Team")));  // unrepaired
  const auto results = ExplainAll(engine, requests);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, HeterogeneousKindsInOneBatch) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  ExplainRequest interactions = ConstraintRequest(data::SoccerTargetCell());
  interactions.kind = ExplainKind::kInteractions;
  ExplainRequest removal = ConstraintRequest(data::SoccerTargetCell());
  removal.kind = ExplainKind::kRemovalSets;
  ExplainRequest single;
  single.target = data::SoccerTargetCell();
  single.kind = ExplainKind::kSingleCell;
  single.cells.policy = AbsentCellPolicy::kNull;
  single.cells.num_samples = 50;
  single.single_cell = data::SoccerCell(5, "League");

  const auto results = ExplainAll(engine, {interactions, removal, single});
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_FALSE(results[0]->interactions.empty());
  // Removal sets for the running example: {C1,C3} and {C2,C3}.
  ASSERT_EQ(results[1]->removal_sets.size(), 2u);
  ASSERT_TRUE(results[2]->single_cell.has_value());
  // The constraint-mask evaluations behind interactions and removal
  // sets overlap, so the engine must record amortized work.
  EXPECT_GT(engine.num_cross_request_hits(), 0u);
}

TEST(EngineTest, ReferenceCleanExposedAfterEnsureRepair) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  EXPECT_FALSE(engine.has_repair());
  ASSERT_TRUE(engine.EnsureRepair().ok());
  ASSERT_TRUE(engine.has_repair());
  EXPECT_EQ(engine.reference_clean(), data::SoccerCleanTable());
  EXPECT_EQ(engine.num_algorithm_calls(), 1u);
}

TEST(EngineTest, TooManyConstraintsForMaskRejected) {
  // 65 constraints exceed the uint64_t subset-mask width; the engine
  // must reject the request instead of silently truncating.
  const Schema schema = data::SoccerSchema();
  std::string text;
  for (int i = 1; i <= 65; ++i) {
    text += "X" + std::to_string(i) +
            ": !(t1.Team == t2.Team & t1.City != t2.City)\n";
  }
  auto dcs = dc::ParseDcSet(text, schema);
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  ASSERT_EQ(dcs->size(), 65u);
  Engine engine(Alg(), *dcs, data::SoccerDirtyTable());
  auto result = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  ExplainRequest removal = ConstraintRequest(data::SoccerTargetCell());
  removal.kind = ExplainKind::kRemovalSets;
  EXPECT_FALSE(engine.Explain(removal).ok());
}

TEST(EngineTest, ExactCellRequestPastTheWalkCeilingRejected) {
  // Pruning off on a 20-row table: 120 cell players. The exact path
  // must refuse 2^120 coalitions whatever max_exact_players allows,
  // and the engine must keep serving afterwards.
  auto generated = data::GenerateSoccer({.num_rows = 20, .seed = 41});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.1;
  inject.seed = 42;
  const Table dirty = data::InjectErrors(generated.clean, inject).dirty;
  Engine engine(Alg(), generated.dcs, dirty);
  ASSERT_TRUE(engine.EnsureRepair().ok());
  auto repaired = DiffTables(dirty, engine.reference_clean());
  ASSERT_TRUE(repaired.ok());
  ASSERT_FALSE(repaired->empty());
  ExplainRequest exact;
  exact.target = (*repaired)[0].cell;
  exact.kind = ExplainKind::kCells;
  exact.cells.method = CellMethod::kExact;
  exact.cells.policy = AbsentCellPolicy::kNull;
  exact.cells.prune = false;
  exact.cells.max_exact_players = 1000;
  auto rejected = engine.Explain(exact);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  auto served = engine.Explain(ConstraintRequest(exact.target));
  EXPECT_TRUE(served.ok()) << served.status();
}

TEST(EngineTest, SingleCellRequestWithoutPlayerCellRejected) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kSingleCell;  // single_cell left unset
  auto result = engine.Explain(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ExplanationReportsPerRequestCostOnWarmEngine) {
  Engine engine(Alg(), data::SoccerConstraints(), data::SoccerDirtyTable());
  auto first = engine.Explain(ConstraintRequest(data::SoccerTargetCell()));
  ASSERT_TRUE(first.ok());
  // 1 reference + 7 subsets (C4 held present, grand coalition seeded).
  EXPECT_EQ(first->explanation->algorithm_calls, 8u);
  auto second =
      engine.Explain(ConstraintRequest(data::SoccerCell(5, "City")));
  ASSERT_TRUE(second.ok());
  // The warm engine served everything from cache: the embedded
  // Explanation reports this request's cost, not lifetime totals.
  EXPECT_EQ(second->explanation->algorithm_calls, 0u);
  EXPECT_EQ(second->explanation->cache_hits, 16u);
}

TEST(EngineTest, ExplainKindNames) {
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kConstraints),
               "constraints");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kCells), "cells");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kInteractions),
               "interactions");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kRemovalSets),
               "removal-sets");
  EXPECT_STREQ(ExplainKindToString(ExplainKind::kSingleCell),
               "single-cell");
}

}  // namespace
}  // namespace trex
