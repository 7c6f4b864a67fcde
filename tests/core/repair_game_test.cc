#include "core/repair_game.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"
#include "table/diff.h"

namespace trex {
namespace {

// Keep the algorithm alive for all boxes (Make holds a raw pointer);
// a static instance is simplest for tests.
std::shared_ptr<repair::RuleRepair> Algorithm1Singleton() {
  static std::shared_ptr<repair::RuleRepair> alg = repair::MakeAlgorithm1();
  return alg;
}

BlackBoxRepair MakeSoccerBox() {
  auto box = BlackBoxRepair::Make(Algorithm1Singleton().get(),
                                  data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  EXPECT_TRUE(box.ok()) << box.status();
  return std::move(box).value();
}

Result<BlackBoxRepair> MakeBox(CellRef target) {
  return BlackBoxRepair::Make(Algorithm1Singleton().get(),
                              data::SoccerConstraints(),
                              data::SoccerDirtyTable(), target);
}

TEST(BlackBoxRepairTest, ReferenceRunEstablishesCleanValue) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  EXPECT_TRUE(box->target_was_repaired());
  EXPECT_EQ(box->reference_clean().at(data::SoccerTargetCell()),
            Value("Spain"));
  EXPECT_EQ(box->num_algorithm_calls(), 1u);  // the reference run
}

TEST(BlackBoxRepairTest, UnrepairedTargetDetected) {
  auto box = MakeBox(data::SoccerCell(1, "Team"));
  ASSERT_TRUE(box.ok());
  EXPECT_FALSE(box->target_was_repaired());
}

TEST(BlackBoxRepairTest, NullAlgorithmRejected) {
  auto box =
      BlackBoxRepair::Make(nullptr, data::SoccerConstraints(),
                           data::SoccerDirtyTable(), CellRef{0, 0});
  EXPECT_FALSE(box.ok());
}

TEST(BlackBoxRepairTest, TargetOutOfRangeRejected) {
  auto box = BlackBoxRepair::Make(
      Algorithm1Singleton().get(), data::SoccerConstraints(),
      data::SoccerDirtyTable(), CellRef{99, 0});
  EXPECT_FALSE(box.ok());
  EXPECT_EQ(box.status().code(), StatusCode::kOutOfRange);
}

TEST(BlackBoxRepairTest, ConstraintSubsetOutcomes) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  // Example 2.3's characteristic function.
  EXPECT_FALSE(box->EvalConstraintSubset(0b0000));
  EXPECT_FALSE(box->EvalConstraintSubset(0b0001));  // C1 alone
  EXPECT_FALSE(box->EvalConstraintSubset(0b0010));  // C2 alone
  EXPECT_TRUE(box->EvalConstraintSubset(0b0011));   // C1+C2
  EXPECT_TRUE(box->EvalConstraintSubset(0b0100));   // C3
  EXPECT_TRUE(box->EvalConstraintSubset(0b1111));   // all
  EXPECT_FALSE(box->EvalConstraintSubset(0b1000));  // C4 alone
}

TEST(BlackBoxRepairTest, MaskCacheAvoidsRepeatCalls) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const std::size_t base = box->num_algorithm_calls();
  box->EvalConstraintSubset(0b0011);
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  box->EvalConstraintSubset(0b0011);
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);  // cached
  EXPECT_EQ(box->num_cache_hits(), 1u);
}

TEST(BlackBoxRepairTest, TableCacheKeysOnContent) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const std::vector<CellWrite> perturbed = {
      {data::SoccerCell(1, "Team"), Value::Null()}};
  const std::size_t base = box->num_algorithm_calls();
  box->EvalPerturbation(perturbed);
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  // Equal content, different object: still cached.
  const std::vector<CellWrite> same = {
      {data::SoccerCell(1, "Team"), Value::Null()}};
  box->EvalPerturbation(same);
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  EXPECT_GE(box->num_cache_hits(), 1u);
}

TEST(BlackBoxRepairTest, CacheCanBeDisabled) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  box->set_cache_enabled(false);
  const std::size_t base = box->num_algorithm_calls();
  box->EvalConstraintSubset(0b0011);
  box->EvalConstraintSubset(0b0011);
  EXPECT_EQ(box->num_algorithm_calls(), base + 2);
  EXPECT_EQ(box->num_cache_hits(), 0u);
}

TEST(BlackBoxRepairTest, EvalPerturbationWithNulledTarget) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  // Nulling out every Country cell leaves no repair evidence: outcome 0.
  std::vector<CellWrite> perturbed;
  for (std::size_t r = 0; r < box->dirty().num_rows(); ++r) {
    perturbed.push_back({data::SoccerCell(r + 1, "Country"), Value::Null()});
  }
  EXPECT_FALSE(box->EvalPerturbation(perturbed));
}

TEST(ConstraintGameTest, MatchesBoxOutcomes) {
  const BlackBoxRepair box = MakeSoccerBox();
  ConstraintGame game(&box);
  EXPECT_EQ(game.num_players(), 4u);
  shap::Coalition c1_c2{true, true, false, false};
  EXPECT_DOUBLE_EQ(game.Value(c1_c2), 1.0);
  shap::Coalition c1_only{true, false, false, false};
  EXPECT_DOUBLE_EQ(game.Value(c1_only), 0.0);
  shap::Coalition empty(4, false);
  EXPECT_DOUBLE_EQ(game.Value(empty), 0.0);
}

TEST(CellGameTest, FullCoalitionRepairs) {
  const BlackBoxRepair box = MakeSoccerBox();
  CellGame game(&box, box.dirty().AllCells());
  EXPECT_EQ(game.num_players(), 36u);
  shap::Coalition all(36, true);
  EXPECT_DOUBLE_EQ(game.Value(all), 1.0);
}

TEST(CellGameTest, EmptyCoalitionDoesNotRepair) {
  const BlackBoxRepair box = MakeSoccerBox();
  CellGame game(&box, box.dirty().AllCells());
  shap::Coalition none(36, false);
  EXPECT_DOUBLE_EQ(game.Value(none), 0.0);
}

TEST(CellGameTest, Example24CoalitionRepairsViaC1C2) {
  // The paper's minimal C1+C2 coalition: {t3[Team], t3[City],
  // t3[Country], t5[Team]} — all other cells null.
  const BlackBoxRepair box = MakeSoccerBox();
  const std::vector<CellRef> players = box.dirty().AllCells();
  CellGame game(&box, players);
  shap::Coalition coalition(players.size(), false);
  auto include = [&](CellRef cell) {
    coalition[box.dirty().LinearIndex(cell)] = true;
  };
  include(data::SoccerCell(3, "Team"));
  include(data::SoccerCell(3, "City"));
  include(data::SoccerCell(3, "Country"));
  include(data::SoccerCell(5, "Team"));
  EXPECT_DOUBLE_EQ(game.Value(coalition), 1.0);
}

TEST(CellGameTest, Example24CoalitionRepairsViaC3Pair) {
  // One (League, Country) support pair plus t5[League] triggers C3.
  const BlackBoxRepair box = MakeSoccerBox();
  const std::vector<CellRef> players = box.dirty().AllCells();
  CellGame game(&box, players);
  shap::Coalition coalition(players.size(), false);
  auto include = [&](CellRef cell) {
    coalition[box.dirty().LinearIndex(cell)] = true;
  };
  include(data::SoccerCell(1, "League"));
  include(data::SoccerCell(1, "Country"));
  include(data::SoccerCell(5, "League"));
  EXPECT_DOUBLE_EQ(game.Value(coalition), 1.0);
}

TEST(CellGameTest, PairWithoutTargetLeagueDoesNotRepair) {
  // Without t5[League] in the coalition, C3 cannot bind t5.
  const BlackBoxRepair box = MakeSoccerBox();
  const std::vector<CellRef> players = box.dirty().AllCells();
  CellGame game(&box, players);
  shap::Coalition coalition(players.size(), false);
  coalition[box.dirty().LinearIndex(data::SoccerCell(1, "League"))] = true;
  coalition[box.dirty().LinearIndex(data::SoccerCell(1, "Country"))] = true;
  EXPECT_DOUBLE_EQ(game.Value(coalition), 0.0);
}

TEST(BlackBoxRepairTest, MultiTargetSharesOneReferenceRun) {
  auto box = BlackBoxRepair::MakeMultiTarget(
      Algorithm1Singleton().get(), data::SoccerConstraints(),
      data::SoccerDirtyTable(),
      {data::SoccerTargetCell(), data::SoccerCell(5, "City"),
       data::SoccerCell(1, "Team")});
  ASSERT_TRUE(box.ok()) << box.status();
  EXPECT_EQ(box->num_algorithm_calls(), 1u);  // one reference run
  EXPECT_EQ(box->num_targets(), 3u);
  EXPECT_TRUE(box->target_was_repaired(0));   // t5[Country]
  EXPECT_TRUE(box->target_was_repaired(1));   // t5[City]
  EXPECT_FALSE(box->target_was_repaired(2));  // t1[Team] untouched
}

TEST(BlackBoxRepairTest, OneCachedEvalAnswersEveryTarget) {
  auto box = BlackBoxRepair::MakeMultiTarget(
      Algorithm1Singleton().get(), data::SoccerConstraints(),
      data::SoccerDirtyTable(),
      {data::SoccerTargetCell(), data::SoccerCell(5, "City")});
  ASSERT_TRUE(box.ok());
  const std::size_t base = box->num_algorithm_calls();
  // C4 writes only Place, which reaches neither target; C2 and C3 write
  // Country, which cannot reach City. Lookups hold these present.
  EXPECT_EQ(box->dummy_constraints(0), 0b1000u);
  EXPECT_EQ(box->dummy_constraints(1), 0b1110u);
  // Without C1, C3 still repairs t5[Country] but t5[City] stays dirty.
  // Both lookups are the canonical mask {C2,C3,C4}: one run answers the
  // two targets.
  EXPECT_TRUE(box->EvalConstraintSubset(0b1110, 0));
  EXPECT_FALSE(box->EvalConstraintSubset(0b0000, 1));
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  EXPECT_EQ(box->num_cache_hits(), 1u);
  // t5[City] under {C1} is the grand coalition, seeded from the
  // reference repair: answered with zero calls.
  EXPECT_TRUE(box->EvalConstraintSubset(0b0001, 1));
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  EXPECT_EQ(box->num_cache_hits(), 2u);
  // C1+C2 repair the city (and through it the country).
  EXPECT_TRUE(box->EvalConstraintSubset(0b0011, 0));
  EXPECT_TRUE(box->EvalConstraintSubset(0b0011, 1));
  EXPECT_EQ(box->num_algorithm_calls(), base + 2);
}

TEST(BlackBoxRepairTest, AddTargetRegistersAgainstCachedReference) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  auto index = box->AddTarget(data::SoccerCell(5, "City"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 1u);
  EXPECT_EQ(box->num_algorithm_calls(), 1u);  // still just the reference
  EXPECT_TRUE(box->target_was_repaired(1));
  // Re-adding is idempotent; out-of-table cells are rejected.
  auto again = box->AddTarget(data::SoccerCell(5, "City"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
  EXPECT_FALSE(box->AddTarget(CellRef{99, 0}).ok());
  EXPECT_EQ(box->FindTarget(data::SoccerTargetCell()), std::size_t{0});
  EXPECT_FALSE(box->FindTarget(CellRef{0, 0}).has_value());
}

TEST(BlackBoxRepairTest, CrossRequestHitAccounting) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  box->BeginRequest(1);
  box->EvalConstraintSubset(0b0011);
  box->EvalConstraintSubset(0b0011);  // same-request hit
  EXPECT_EQ(box->num_cache_hits(), 1u);
  EXPECT_EQ(box->num_cross_request_hits(), 0u);
  box->BeginRequest(2);
  box->EvalConstraintSubset(0b0011);  // hit on request 1's entry
  EXPECT_EQ(box->num_cache_hits(), 2u);
  EXPECT_EQ(box->num_cross_request_hits(), 1u);
}

TEST(BlackBoxRepairTest, GrandCellCoalitionIsServedFromTheReference) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const std::size_t bytes = box->approx_memo_bytes();
  // An empty write set, and one that re-states T^d's own values, are T^d
  // itself: its repair is T^c, so no call runs and no entry is stored.
  const CellRef place = data::SoccerCell(1, "Place");
  const std::vector<CellWrite> restated = {
      {place, box->dirty().at(place)}};
  for (int request = 1; request <= 2; ++request) {
    box->BeginRequest(request);
    EXPECT_TRUE(box->EvalPerturbation({}, 0));
    EXPECT_TRUE(box->EvalPerturbation(restated, 0));
  }
  EXPECT_EQ(box->num_algorithm_calls(), 1u);  // the reference run only
  EXPECT_EQ(box->num_cache_hits(), 4u);
  EXPECT_EQ(box->num_cross_request_hits(), 0u);
  EXPECT_EQ(box->num_table_memo_entries(), 0u);
  EXPECT_EQ(box->approx_memo_bytes(), bytes);
}

TEST(BlackBoxRepairTest, TableCacheVerifiesFullContentNotJustFingerprint) {
  // Two perturbations with different content must never share a cache
  // entry. (A fingerprint collision between arbitrary tables cannot be
  // staged here, but the outcome difference proves the full-content
  // check is in the lookup path: both tables would collide into one
  // entry under a value-blind key.)
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const std::vector<CellWrite> a = {
      {data::SoccerCell(5, "League"), Value::Null()}};
  const std::vector<CellWrite> b = {
      {data::SoccerCell(5, "Country"), Value::Null()}};
  const std::size_t base = box->num_algorithm_calls();
  box->EvalPerturbation(a);
  box->EvalPerturbation(b);
  EXPECT_EQ(box->num_algorithm_calls(), base + 2);  // two distinct entries
  box->EvalPerturbation(a);
  box->EvalPerturbation(b);
  EXPECT_EQ(box->num_algorithm_calls(), base + 2);  // both verified hits
  EXPECT_EQ(box->num_cache_hits(), 2u);
}

/// `table` with its int column `name` retyped double.
Table WithDoubleColumn(const Table& table, const char* name) {
  std::vector<Attribute> attributes = table.schema().attributes();
  const std::size_t col = *table.schema().IndexOf(name);
  attributes[col].type = ValueType::kDouble;
  Table out{Schema(std::move(attributes))};
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.at(r, c);
      row.push_back(c == col && !v.is_null()
                        ? Value(static_cast<double>(v.as_int()))
                        : v);
    }
    EXPECT_TRUE(out.AppendRow(std::move(row)).ok());
  }
  return out;
}

TEST(BlackBoxRepairTest, EqualValuesOfOneColumnAreOneMemoInput) {
  // `Value::Hash` follows `Value::operator==`, so 7 and 7.0, and +0.0
  // and -0.0, share a memo bucket. A column holds one type, so 7 and 7.0
  // never meet in one cell: 7.0 into the int Place column is rejected.
  // -0.0 is interned as +0.0, so in a double column the two zeros are
  // one input: one repair, then a verified hit with the same outcome.
  ASSERT_EQ(Value(7).Hash(), Value(7.0).Hash());
  ASSERT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
  const Table dirty = WithDoubleColumn(data::SoccerDirtyTable(), "Year");
  const auto make = [&] {
    return BlackBoxRepair::Make(Algorithm1Singleton().get(),
                                data::SoccerConstraints(), dirty,
                                data::SoccerTargetCell());
  };
  auto uncached = make();
  ASSERT_TRUE(uncached.ok());
  uncached->set_cache_enabled(false);
  auto box = make();
  ASSERT_TRUE(box.ok());
  const std::size_t base = box->num_algorithm_calls();
  const CellRef year = data::SoccerCell(5, "Year");
  const std::vector<CellWrite> positive = {{year, Value(0.0)}};
  const std::vector<CellWrite> negative = {{year, Value(-0.0)}};
  const bool outcome = box->EvalPerturbation(positive);
  EXPECT_EQ(outcome, uncached->EvalPerturbation(positive));
  EXPECT_EQ(box->EvalPerturbation(negative), outcome);
  EXPECT_EQ(uncached->EvalPerturbation(negative), outcome);
  EXPECT_EQ(box->num_algorithm_calls(), base + 1);
  EXPECT_EQ(box->num_table_memo_entries(), 1u);
  EXPECT_EQ(box->num_cache_hits(), 1u);

  const CellRef place = data::SoccerCell(5, "Place");
  const std::vector<CellWrite> double_into_int = {{place, Value(7.0)}};
  EXPECT_DEATH(box->EvalPerturbation(double_into_int), "Check failed");
}

TEST(BlackBoxRepairTest, EvalPerturbationMatchesFreshRepair) {
  // The delta path must agree bit for bit with a fresh repair of the
  // materialized table, and the second evaluation of a write set is a
  // memo hit, not a second repair run.
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  const Table dirty = data::SoccerDirtyTable();
  for (std::size_t round = 0; round < 8; ++round) {
    std::vector<CellWrite> writes;
    for (std::size_t i = 0; i <= round % 4; ++i) {
      const CellRef cell{(round + i) % dirty.num_rows(),
                         (round + 2 * i) % dirty.num_columns()};
      const bool is_int =
          dirty.schema().attribute(cell.col).type == ValueType::kInt;
      writes.push_back(
          {cell, i % 2 == 0 ? Value::Null()
                 : is_int   ? Value(static_cast<int>(1000 + round))
                            : Value("w" + std::to_string(round))});
    }
    Table materialized = dirty;
    for (const CellWrite& w : writes) materialized.Set(w.cell, w.value);
    auto repaired = box->algorithm().Repair(box->dcs(), materialized);
    ASSERT_TRUE(repaired.ok()) << repaired.status();
    const bool expected = CellRepairedTo(*repaired, box->reference_clean(),
                                         data::SoccerTargetCell());
    EXPECT_EQ(box->EvalPerturbation(writes), expected) << "round " << round;
    const std::size_t calls = box->num_algorithm_calls();
    EXPECT_EQ(box->EvalPerturbation(writes), expected) << "round " << round;
    EXPECT_EQ(box->num_algorithm_calls(), calls) << "round " << round;
  }
}

TEST(BlackBoxRepairTest, WarmCacheEvaluationsMakeNoTableCopies) {
  auto box = MakeBox(data::SoccerTargetCell());
  ASSERT_TRUE(box.ok());
  CellGame game(&*box, {data::SoccerCell(5, "League"),
                        data::SoccerCell(5, "Country"),
                        data::SoccerCell(1, "Country")});
  std::vector<shap::Coalition> coalitions;
  for (unsigned bits = 0; bits < 8; ++bits) {
    coalitions.push_back({(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0});
  }
  std::vector<double> cold;
  for (const auto& coalition : coalitions) {
    cold.push_back(game.Value(coalition));
  }
  // Cold pass: misses materialized into ONE per-thread scratch copy,
  // not one copy per coalition.
  EXPECT_EQ(box->num_eval_table_copies(), 1u);
  const std::size_t calls = box->num_algorithm_calls();
  // Warm pass: all hits — zero table copies, zero repair runs.
  for (std::size_t i = 0; i < coalitions.size(); ++i) {
    EXPECT_EQ(game.Value(coalitions[i]), cold[i]);
  }
  EXPECT_EQ(box->num_eval_table_copies(), 1u);
  EXPECT_EQ(box->num_algorithm_calls(), calls);
}

TEST(BlackBoxRepairTest, LateTargetReadsResidentEntriesOnAllBackends) {
  // Entries store the output's diff against T^c, so a target registered
  // after they were written reads its outcome from them: no new repair
  // run, and the same answer an uncached box computes from scratch.
  const std::vector<std::shared_ptr<const repair::RepairAlgorithm>>
      backends = {Algorithm1Singleton(),
                  std::make_shared<repair::FdRepair>(),
                  std::make_shared<repair::HolisticRepair>(),
                  std::make_shared<repair::HoloCleanRepair>()};
  const Table dirty = data::SoccerDirtyTable();
  Rng rng(2024);
  std::vector<std::vector<CellWrite>> perturbations;
  for (std::size_t p = 0; p < 12; ++p) {
    std::vector<CellWrite> writes;
    for (std::size_t i = 0; i < dirty.num_cells(); ++i) {
      if (rng.UniformUint64(4) == 0) {
        writes.push_back({dirty.FromLinearIndex(i), Value::Null()});
      }
    }
    perturbations.push_back(std::move(writes));
  }
  const CellRef target_a = data::SoccerTargetCell();
  const CellRef target_b = data::SoccerCell(5, "City");
  for (const auto& backend : backends) {
    SCOPED_TRACE(backend->name());
    auto box = BlackBoxRepair::Make(backend.get(), data::SoccerConstraints(),
                                    dirty, target_a);
    auto uncached = BlackBoxRepair::MakeMultiTarget(
        backend.get(), data::SoccerConstraints(), dirty,
        {target_a, target_b});
    ASSERT_TRUE(box.ok()) << box.status();
    ASSERT_TRUE(uncached.ok()) << uncached.status();
    uncached->set_cache_enabled(false);
    const std::size_t num_masks = std::size_t{1} << box->dcs().size();
    for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
      EXPECT_EQ(box->EvalConstraintSubset(mask, 0),
                uncached->EvalConstraintSubset(mask, 0));
    }
    for (const auto& writes : perturbations) {
      EXPECT_EQ(box->EvalPerturbation(writes, 0),
                uncached->EvalPerturbation(writes, 0));
    }

    auto added = box->AddTarget(target_b);
    ASSERT_TRUE(added.ok());
    const std::size_t calls = box->num_algorithm_calls();
    for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
      EXPECT_EQ(box->EvalConstraintSubset(mask, *added),
                uncached->EvalConstraintSubset(mask, 1))
          << "mask " << mask;
    }
    for (std::size_t p = 0; p < perturbations.size(); ++p) {
      EXPECT_EQ(box->EvalPerturbation(perturbations[p], *added),
                uncached->EvalPerturbation(perturbations[p], 1))
          << "perturbation " << p;
    }
    EXPECT_EQ(box->num_algorithm_calls(), calls);
  }
}

TEST(CellGameTest, PrunedPlayerListKeepsBackgroundCells) {
  // With players restricted to two cells, all other cells keep their
  // original values: including both players repairs the target because
  // the rest of the table is intact.
  const BlackBoxRepair box = MakeSoccerBox();
  CellGame game(&box, {data::SoccerCell(5, "League"),
                       data::SoccerCell(5, "Country")});
  EXPECT_EQ(game.num_players(), 2u);
  shap::Coalition both{true, true};
  EXPECT_DOUBLE_EQ(game.Value(both), 1.0);
  // Removing t5[League] from the coalition nulls it; C3 cannot fire, but
  // C1+C2 still repair through the intact background cells.
  shap::Coalition country_only{false, true};
  EXPECT_DOUBLE_EQ(game.Value(country_only), 1.0);
}

// ---- Repair sessions: the box against a backend that hides the hook -----

/// Forwards `name`, `Repair` and `InfluenceGraph` only, so the box finds
/// no session and takes the black-box path: `Repair` on the scratch,
/// then `DiffAgainstClean` over every cell.
class HiddenSessionAlgorithm : public repair::RepairAlgorithm {
 public:
  explicit HiddenSessionAlgorithm(
      std::shared_ptr<const repair::RepairAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override {
    return inner_->Repair(dcs, dirty);
  }

  std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const override {
    return inner_->InfluenceGraph(dcs, schema);
  }

 private:
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
};

struct World {
  Table dirty;
  dc::DcSet dcs;
};

/// A generated soccer world with swap, typo and missing errors over
/// every column.
World GeneratedWorld(std::size_t rows, std::uint64_t seed) {
  auto generated = data::GenerateSoccer({.num_rows = rows, .seed = seed});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.1;
  inject.seed = seed + 1;
  return World{data::InjectErrors(generated.clean, inject).dirty,
               std::move(generated.dcs)};
}

void ExpectSameScores(const ExplainResult& a, const ExplainResult& b) {
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation.has_value()) {
    ASSERT_EQ(a.explanation->ranked.size(), b.explanation->ranked.size());
    for (std::size_t i = 0; i < a.explanation->ranked.size(); ++i) {
      const PlayerScore& x = a.explanation->ranked[i];
      const PlayerScore& y = b.explanation->ranked[i];
      EXPECT_EQ(x.label, y.label);
      EXPECT_EQ(x.shapley, y.shapley) << x.label;
      EXPECT_EQ(x.std_error, y.std_error) << x.label;
      EXPECT_EQ(x.num_samples, y.num_samples) << x.label;
    }
  }
  ASSERT_EQ(a.single_cell.has_value(), b.single_cell.has_value());
  if (a.single_cell.has_value()) {
    EXPECT_EQ(a.single_cell->shapley, b.single_cell->shapley);
    EXPECT_EQ(a.single_cell->std_error, b.single_cell->std_error);
  }
  EXPECT_EQ(a.sweeps, b.sweeps);
}

/// Serves `requests` on an engine over rule_repair and on one whose
/// backend hides the session hook, and requires bit-identical scores.
/// Serially the cost counters match exactly too. With more threads, two
/// shards may miss one key together and both run the repair, so only
/// calls + hits (the evaluations made) and the memo bytes (duplicates
/// are not retained) are fixed.
void ExpectSessionInvisible(const World& world,
                            const std::vector<ExplainRequest>& requests,
                            std::size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  const std::shared_ptr<const repair::RepairAlgorithm> backend =
      Algorithm1Singleton();
  Engine session(backend, world.dcs, world.dirty, options);
  Engine hidden(std::make_shared<HiddenSessionAlgorithm>(backend), world.dcs,
                world.dirty, options);
  for (const ExplainRequest& request : requests) {
    SCOPED_TRACE(ExplainKindToString(request.kind) + std::string(" ") +
                 AbsentCellPolicyToString(request.cells.policy));
    auto with = session.Explain(request);
    auto without = hidden.Explain(request);
    ASSERT_TRUE(with.ok()) << with.status();
    ASSERT_TRUE(without.ok()) << without.status();
    ExpectSameScores(*with, *without);
    if (num_threads == 1) {
      EXPECT_EQ(with->algorithm_calls, without->algorithm_calls);
      EXPECT_EQ(with->cache_hits, without->cache_hits);
    } else {
      EXPECT_EQ(with->algorithm_calls + with->cache_hits,
                without->algorithm_calls + without->cache_hits);
    }
    EXPECT_EQ(session.approx_memo_bytes(), hidden.approx_memo_bytes());
  }
  if (num_threads == 1) {
    EXPECT_EQ(session.num_algorithm_calls(), hidden.num_algorithm_calls());
    EXPECT_EQ(session.num_cache_hits(), hidden.num_cache_hits());
  }
}

class RepairSessionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairSessionTest, SampledCellRequestsMatchHiddenHook) {
  const World world = GeneratedWorld(20, GetParam());
  auto repaired =
      DiffTables(world.dirty, *Algorithm1Singleton()->Repair(world.dcs,
                                                             world.dirty));
  ASSERT_TRUE(repaired.ok() && !repaired->empty());
  const CellRef target = repaired->front().cell;
  std::vector<ExplainRequest> requests;
  for (AbsentCellPolicy policy :
       {AbsentCellPolicy::kNull, AbsentCellPolicy::kSampleFromColumn}) {
    ExplainRequest cells;
    cells.target = target;
    cells.kind = ExplainKind::kCells;
    cells.cells.method = CellMethod::kSampling;
    cells.cells.policy = policy;
    cells.cells.num_samples = 16;
    cells.cells.seed = GetParam() + 5;
    requests.push_back(cells);
  }
  ExplainRequest single;
  single.target = target;
  single.kind = ExplainKind::kSingleCell;
  single.single_cell =
      CellRef{target.row, *world.dirty.schema().IndexOf("League")};
  single.cells.num_samples = 64;
  single.cells.seed = GetParam() + 7;
  requests.push_back(single);
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(num_threads));
    ExpectSessionInvisible(world, requests, num_threads);
  }
}

TEST_P(RepairSessionTest, CandidateDiffEqualsFullDiffOnEveryCell) {
  // Every cell of a 40-row table is a target in both boxes, so one
  // evaluation compares the session path's candidate-only diff with the
  // hidden path's full diff cell by cell.
  const World world = GeneratedWorld(40, GetParam());
  const HiddenSessionAlgorithm hidden_backend(Algorithm1Singleton());
  const std::vector<CellRef> targets = world.dirty.AllCells();
  auto box = BlackBoxRepair::MakeMultiTarget(Algorithm1Singleton().get(),
                                             world.dcs, world.dirty, targets);
  auto hidden = BlackBoxRepair::MakeMultiTarget(&hidden_backend, world.dcs,
                                                world.dirty, targets);
  ASSERT_TRUE(box.ok()) << box.status();
  ASSERT_TRUE(hidden.ok()) << hidden.status();
  // A random walk over write sets, like consecutive sweep coalitions,
  // with a fresh jump now and then: nulls, and values moved within a
  // column.
  Rng rng(GetParam() + 11);
  std::map<std::size_t, Value> walk;  // linear index -> written value
  std::vector<std::vector<CellWrite>> perturbations;
  for (int step = 0; step < 200; ++step) {
    if (step % 50 == 49) walk.clear();
    const std::uint64_t changes = 1 + rng.UniformUint64(3);
    for (std::uint64_t c = 0; c < changes; ++c) {
      const std::size_t index = rng.UniformUint64(world.dirty.num_cells());
      const CellRef cell = world.dirty.FromLinearIndex(index);
      switch (rng.UniformUint64(3)) {
        case 0:
          walk[index] = Value::Null();
          break;
        case 1:
          walk[index] = world.dirty.at(
              rng.UniformUint64(world.dirty.num_rows()), cell.col);
          break;
        default:
          walk.erase(index);
          break;
      }
    }
    std::vector<CellWrite>& writes = perturbations.emplace_back();
    for (const auto& [index, value] : walk) {
      writes.push_back({world.dirty.FromLinearIndex(index), value});
    }
  }
  // One box at a time: a thread switching boxes re-copies its scratch.
  const auto outcomes = [&](const BlackBoxRepair& evaluated) {
    std::vector<std::vector<bool>> out;
    for (const std::vector<CellWrite>& writes : perturbations) {
      std::vector<bool>& row = out.emplace_back();
      for (std::size_t t = 0; t < targets.size(); ++t) {
        row.push_back(evaluated.EvalPerturbation(writes, t));
      }
    }
    return out;
  };
  const std::vector<std::vector<bool>> with = outcomes(*box);
  const std::vector<std::vector<bool>> without = outcomes(*hidden);
  for (std::size_t p = 0; p < perturbations.size(); ++p) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ASSERT_EQ(with[p][t], without[p][t])
          << "step " << p << " target " << targets[t].ToString();
    }
  }
  EXPECT_EQ(box->num_algorithm_calls(), hidden->num_algorithm_calls());
  EXPECT_EQ(box->num_cache_hits(), hidden->num_cache_hits());
  EXPECT_EQ(box->approx_memo_bytes(), hidden->approx_memo_bytes());
  // One scratch copy on the one evaluating thread, session or not.
  EXPECT_EQ(box->num_eval_table_copies(), 1u);
  EXPECT_EQ(hidden->num_eval_table_copies(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSessionTest,
                         ::testing::Values(3, 17, 29));

TEST(RepairSessionTest, ExactCellRequestsMatchHiddenHook) {
  // A three-row cut of the paper's table: t5's España row between two
  // Real Madrid rows, so the target's pruned player set holds 12 cells.
  Table dirty(data::SoccerSchema());
  const Table paper = data::SoccerDirtyTable();
  for (std::size_t row : {2, 4, 5}) {
    std::vector<Value> values;
    for (std::size_t col = 0; col < paper.num_columns(); ++col) {
      values.push_back(paper.at(row, col));
    }
    ASSERT_TRUE(dirty.AppendRow(std::move(values)).ok());
  }
  const World world{std::move(dirty), data::SoccerConstraints()};
  ExplainRequest exact;
  exact.target = CellRef{1, *world.dirty.schema().IndexOf("Country")};
  exact.kind = ExplainKind::kCells;
  exact.cells.method = CellMethod::kExact;
  exact.cells.policy = AbsentCellPolicy::kNull;
  exact.cells.max_exact_players = 14;
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(num_threads));
    ExpectSessionInvisible(world, {exact}, num_threads);
  }
}

}  // namespace
}  // namespace trex
