// Cross-algorithm property tests: invariants every bundled repairer must
// uphold on randomized workloads (TEST_P sweep over seeds). These are
// the contract the Shapley games and the repair memo depend on.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/repair_game.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/violation.h"
#include "repair/faulty.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/rule_repair.h"
#include "repair/soccer_algorithm1.h"
#include "table/diff.h"
#include "tests/serving/determinism_check.h"

namespace trex::repair {
namespace {

struct Workload {
  Table dirty;
  dc::DcSet dcs;
};

Workload MakeWorkload(std::uint64_t seed) {
  auto generated = data::GenerateSoccer({.num_rows = 30, .seed = seed});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.06;
  inject.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  inject.seed = seed + 1;
  auto injected = data::InjectErrors(generated.clean, inject);
  return Workload{std::move(injected.dirty), std::move(generated.dcs)};
}

std::vector<std::shared_ptr<RepairAlgorithm>> AllAlgorithms() {
  std::vector<std::shared_ptr<RepairAlgorithm>> algorithms;
  algorithms.push_back(repair::MakeAlgorithm1());
  algorithms.push_back(std::make_shared<HoloCleanRepair>());
  algorithms.push_back(std::make_shared<HolisticRepair>());
  algorithms.push_back(std::make_shared<FdRepair>());
  return algorithms;
}

class RepairPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RepairPropertyTest, DeterministicSeriallyConcurrentlyAndInTheBox) {
  // The memo's contract (tests/serving/determinism_check.h): `Repair` is
  // a function of its inputs, and a box evaluating interleaved
  // perturbations from two threads — through rule_repair's session, and
  // the other backends' `Repair` — agrees with a fresh repair of each
  // input. The fault-injecting decorator must pass through unchanged
  // while no fault is scheduled.
  const Workload workload = MakeWorkload(GetParam());
  const auto bundled = AllAlgorithms();
  std::vector<std::shared_ptr<const RepairAlgorithm>> algorithms(
      bundled.begin(), bundled.end());
  algorithms.push_back(std::make_shared<FaultyAlgorithm>(
      "faulty-rule", repair::MakeAlgorithm1(), FaultyOptions{}));
  for (const auto& alg : algorithms) {
    SCOPED_TRACE(alg->name() + " seed " + std::to_string(GetParam()));
    testing::CheckDeterminism(*alg, workload.dcs, workload.dirty,
                              GetParam());
  }
}

TEST_P(RepairPropertyTest, PreservesShape) {
  const Workload workload = MakeWorkload(GetParam());
  for (const auto& alg : AllAlgorithms()) {
    auto repaired = alg->Repair(workload.dcs, workload.dirty);
    ASSERT_TRUE(repaired.ok()) << alg->name();
    EXPECT_EQ(repaired->schema(), workload.dirty.schema()) << alg->name();
    EXPECT_EQ(repaired->num_rows(), workload.dirty.num_rows())
        << alg->name();
  }
}

TEST_P(RepairPropertyTest, InputNotMutated) {
  const Workload workload = MakeWorkload(GetParam());
  const Table snapshot = workload.dirty;
  for (const auto& alg : AllAlgorithms()) {
    ASSERT_TRUE(alg->Repair(workload.dcs, workload.dirty).ok());
    EXPECT_EQ(workload.dirty, snapshot) << alg->name();
  }
}

TEST_P(RepairPropertyTest, HolisticNeverIncreasesViolations) {
  const Workload workload = MakeWorkload(GetParam());
  const std::size_t before =
      dc::FindViolations(workload.dirty, workload.dcs).size();
  HolisticRepair alg;
  auto repaired = alg.Repair(workload.dcs, workload.dirty);
  ASSERT_TRUE(repaired.ok());
  EXPECT_LE(dc::FindViolations(*repaired, workload.dcs).size(), before)
      << "seed " << GetParam();
}

TEST_P(RepairPropertyTest, FdRepairClearsFdViolationsOnConsistentErrors) {
  // Swap-only errors confined to the Country column keep the FD set
  // jointly satisfiable (City->Country and League->Country majorities
  // agree on the true value), so FdRepair's fixpoint must clear every
  // FD violation. (Cross-country *City* swaps, by contrast, make C2 and
  // C3 pull the Country cell in opposite directions — naive group-
  // majority iteration then legitimately oscillates to its pass budget;
  // Bohannon et al. resolve such conflicts with a cost model, which is
  // outside this reproduction's scope.)
  auto generated = data::GenerateSoccer({.num_rows = 30,
                                         .seed = GetParam() + 100});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.06;
  inject.weight_swap = 1;
  inject.weight_typo = 0;
  inject.weight_missing = 0;
  inject.columns = {*schema.IndexOf("Country")};
  inject.seed = GetParam() + 101;
  auto injected = data::InjectErrors(generated.clean, inject);

  FdRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  for (std::size_t c = 0; c < generated.dcs.size(); ++c) {
    if (!generated.dcs.at(c).AsFunctionalDependency(nullptr, nullptr)) {
      continue;
    }
    EXPECT_TRUE(
        dc::FindViolationsOf(*repaired, generated.dcs.at(c), c).empty())
        << generated.dcs.at(c).name() << " seed " << GetParam();
  }
}

TEST_P(RepairPropertyTest, RepairersOnlyTouchConstraintColumns) {
  // No bundled repairer may rewrite a column no constraint mentions and
  // no rule targets (Year is mentioned by C4; Place is C4's rule target;
  // so use a DC set without C4).
  const dc::DcSet dcs = data::SoccerConstraints().Without(3);
  auto generated = data::GenerateSoccer({.num_rows = 25,
                                         .seed = GetParam() + 200});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.08;
  inject.seed = GetParam() + 201;
  auto injected = data::InjectErrors(generated.clean, inject);
  const Schema schema = generated.clean.schema();
  const std::size_t year = *schema.IndexOf("Year");
  const std::size_t place = *schema.IndexOf("Place");

  for (const auto& alg : AllAlgorithms()) {
    auto repaired = alg->Repair(dcs, injected.dirty);
    ASSERT_TRUE(repaired.ok()) << alg->name();
    for (std::size_t r = 0; r < repaired->num_rows(); ++r) {
      for (std::size_t c : {year, place}) {
        const Value& before = injected.dirty.at(r, c);
        const Value& after = repaired->at(r, c);
        const bool same = before.is_null() ? after.is_null()
                                           : (!after.is_null() &&
                                              before == after);
        EXPECT_TRUE(same) << alg->name() << " rewrote t" << (r + 1)
                          << " col " << c << " seed " << GetParam();
      }
    }
  }
}

TEST_P(RepairPropertyTest, InfluenceGraphDummyConstraintsAreSound) {
  // The contract `BlackBoxRepair`'s canonical mask keys rely on (see
  // RepairAlgorithm::InfluenceGraph): a returned graph is the union of
  // its single-constraint graphs, and a constraint that writes no column
  // reaching A leaves every cell of A unchanged. Swap, typo and missing
  // errors over every column, so C4's Place rule fires too.
  auto generated = data::GenerateSoccer({.num_rows = 30,
                                         .seed = GetParam() + 300});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.1;
  inject.seed = GetParam() + 301;
  const Table dirty = data::InjectErrors(generated.clean, inject).dirty;
  const dc::DcSet& dcs = generated.dcs;
  const Schema& schema = dirty.schema();
  const std::size_t num_masks = std::size_t{1} << dcs.size();
  std::vector<CellRef> column_targets;
  for (std::size_t col = 0; col < schema.size(); ++col) {
    column_targets.push_back(CellRef{0, col});
  }

  const std::vector<std::shared_ptr<const RepairAlgorithm>> algorithms = {
      repair::MakeAlgorithm1(), std::make_shared<FdRepair>()};
  for (const auto& alg : algorithms) {
    SCOPED_TRACE(alg->name() + " seed " + std::to_string(GetParam()));
    std::vector<dc::AttributeGraph> singles;
    for (std::size_t c = 0; c < dcs.size(); ++c) {
      auto single = alg->InfluenceGraph(dcs.Subset(std::uint64_t{1} << c),
                                        schema);
      ASSERT_TRUE(single.has_value());
      singles.push_back(*single);
    }
    std::vector<Table> outputs;
    for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
      const dc::DcSet subset = dcs.Subset(mask);
      auto graph = alg->InfluenceGraph(subset, schema);
      ASSERT_TRUE(graph.has_value());
      for (std::size_t col = 0; col < schema.size(); ++col) {
        std::set<std::size_t> united;
        for (std::size_t c = 0; c < dcs.size(); ++c) {
          if ((mask >> c) & 1) {
            const std::set<std::size_t>& in = singles[c].Influencers(col);
            united.insert(in.begin(), in.end());
          }
        }
        EXPECT_EQ(graph->Influencers(col), united)
            << "mask " << mask << " col " << col;
      }
      auto repaired = alg->Repair(subset, dirty);
      ASSERT_TRUE(repaired.ok()) << repaired.status();
      outputs.push_back(std::move(*repaired));
    }

    auto box = BlackBoxRepair::MakeMultiTarget(alg.get(), dcs, dirty,
                                               column_targets);
    ASSERT_TRUE(box.ok()) << box.status();
    // Country is reachable by C1-C3 but never by C4 (it writes Place):
    // the oracle is not vacuous.
    EXPECT_EQ(box->dummy_constraints(*schema.IndexOf("Country")) & 0b1000u,
              0b1000u);
    for (std::size_t col = 0; col < schema.size(); ++col) {
      const std::uint64_t dummy = box->dummy_constraints(col);
      for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
        const Table& held = outputs[mask | dummy];
        for (std::size_t r = 0; r < dirty.num_rows(); ++r) {
          const CellRef cell{r, col};
          EXPECT_TRUE(CellRepairedTo(outputs[mask], held, cell))
              << cell.ToString() << " mask " << mask << " dummy " << dummy;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace trex::repair
