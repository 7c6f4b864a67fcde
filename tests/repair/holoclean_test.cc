#include "repair/holoclean.h"

#include <gtest/gtest.h>

#include <set>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/violation.h"
#include "repair/metrics.h"

namespace trex::repair {
namespace {

TEST(HoloCleanTest, RepairsTheSoccerTable) {
  HoloCleanRepair alg;
  auto clean =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok()) << clean.status();
  // The headline repair: t5[Country] -> Spain, t5[City] -> Madrid.
  EXPECT_EQ(clean->at(data::SoccerCell(5, "Country")), Value("Spain"));
  EXPECT_EQ(clean->at(data::SoccerCell(5, "City")), Value("Madrid"));
}

TEST(HoloCleanTest, CleanInputIsUntouched) {
  HoloCleanRepair alg;
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerCleanTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerCleanTable());
}

TEST(HoloCleanTest, Deterministic) {
  HoloCleanRepair alg;
  auto a = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  auto b = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(HoloCleanTest, EmptyConstraintSetIsIdentity) {
  HoloCleanRepair alg;
  auto repaired = alg.Repair(dc::DcSet{}, data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerDirtyTable());
}

TEST(HoloCleanTest, OnlyNoisyCellsChange) {
  HoloCleanRepair alg;
  const Table dirty = data::SoccerDirtyTable();
  const dc::DcSet dcs = data::SoccerConstraints();
  auto clean = alg.Repair(dcs, dirty);
  ASSERT_TRUE(clean.ok());

  // Collect cells implicated in violations of the dirty table.
  std::set<std::size_t> noisy;
  for (const auto& v : dc::FindViolations(dirty, dcs)) {
    for (const CellRef& cell : dc::ImplicatedCells(v, dcs)) {
      noisy.insert(dirty.LinearIndex(cell));
    }
  }
  for (const CellRef& cell : dirty.AllCells()) {
    if (dirty.at(cell) != clean->at(cell)) {
      EXPECT_TRUE(noisy.count(dirty.LinearIndex(cell)) > 0)
          << cell.ToString(dirty.schema()) << " changed but was not noisy";
    }
  }
}

TEST(HoloCleanTest, ReducesViolationsOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 60, .seed = 7});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.04;
  inject.seed = 11;
  auto injected = data::InjectErrors(generated.clean, inject);

  const std::size_t before =
      dc::FindViolations(injected.dirty, generated.dcs).size();
  ASSERT_GT(before, 0u);

  HoloCleanRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  const std::size_t after =
      dc::FindViolations(*repaired, generated.dcs).size();
  EXPECT_LT(after, before);
}

TEST(HoloCleanTest, AchievesReasonablePrecisionOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 80, .seed = 21});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.03;
  inject.seed = 22;
  // Corrupt only FD-governed columns (City / Country) so errors are
  // detectable by the constraint set.
  const Schema schema = generated.clean.schema();
  inject.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  auto injected = data::InjectErrors(generated.clean, inject);
  ASSERT_FALSE(injected.injected.empty());

  HoloCleanRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  auto quality = EvaluateRepair(injected.dirty, *repaired,
                                generated.clean, generated.dcs);
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality->recall, 0.3) << quality->ToString();
  EXPECT_GT(quality->precision, 0.3) << quality->ToString();
}

TEST(HoloCleanTest, LearnedWeightsStillRepairHeadlineCell) {
  HoloCleanOptions options;
  options.learn_weights = false;  // fixed initial weights
  HoloCleanRepair fixed(options);
  auto clean =
      fixed.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->at(data::SoccerTargetCell()), Value("Spain"));
}

TEST(HoloCleanTest, DomainCapRespected) {
  HoloCleanOptions options;
  options.max_domain_size = 2;
  HoloCleanRepair alg(options);
  auto clean =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok());  // still terminates and returns something
}

TEST(HoloCleanTest, HandlesNulledCoalitionTables) {
  HoloCleanRepair alg;
  Table masked = data::SoccerDirtyTable();
  for (const std::size_t row : {1, 2, 3, 6}) {
    masked.Set(data::SoccerCell(row, "Country"), Value::Null());
  }
  auto repaired = alg.Repair(data::SoccerConstraints(), masked);
  ASSERT_TRUE(repaired.ok());
}

}  // namespace
}  // namespace trex::repair
