#include "repair/holistic.h"

#include <gtest/gtest.h>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"

namespace trex::repair {
namespace {

TEST(HolisticTest, EliminatesViolationsOnSoccerTable) {
  HolisticRepair alg;
  auto clean =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(
      dc::FindViolations(*clean, data::SoccerConstraints()).empty());
}

TEST(HolisticTest, CleanInputIsUntouched) {
  HolisticRepair alg;
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerCleanTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerCleanTable());
}

TEST(HolisticTest, Deterministic) {
  HolisticRepair alg;
  auto a = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  auto b = alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(HolisticTest, GreedyCoverPicksHighDegreeCell) {
  // Three tuples share Team 'Real' but have three different cities; the
  // MVC heuristic should converge by changing the minority cities (or
  // one pivot cell), not by rewriting unrelated cells.
  const Schema schema = Schema::AllStrings({"Team", "City"});
  auto dcs =
      dc::ParseDcSet("!(t1.Team == t2.Team & t1.City != t2.City)", schema);
  ASSERT_TRUE(dcs.ok());
  Table dirty(schema);
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Madrid")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Madrid")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Real"), Value("Capital")}).ok());
  ASSERT_TRUE(dirty.AppendRow({Value("Barca"), Value("Barcelona")}).ok());

  HolisticRepair alg;
  auto clean = alg.Repair(*dcs, dirty);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(dc::FindViolations(*clean, *dcs).empty());
  EXPECT_EQ(clean->at(2, 1), Value("Madrid"));
  EXPECT_EQ(clean->at(3, 1), Value("Barcelona"));  // untouched
}

TEST(HolisticTest, ReducesViolationsOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 50, .seed = 3});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.05;
  inject.seed = 4;
  auto injected = data::InjectErrors(generated.clean, inject);
  const std::size_t before =
      dc::FindViolations(injected.dirty, generated.dcs).size();
  ASSERT_GT(before, 0u);

  HolisticRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  EXPECT_LT(dc::FindViolations(*repaired, generated.dcs).size(), before);
}

TEST(HolisticTest, RoundBudgetGuardsTermination) {
  HolisticOptions options;
  options.max_rounds = 1;
  HolisticRepair alg(options);
  auto repaired =
      alg.Repair(data::SoccerConstraints(), data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());  // must terminate even when not clean
}

TEST(HolisticTest, EmptyConstraintSetIsIdentity) {
  HolisticRepair alg;
  auto repaired = alg.Repair(dc::DcSet{}, data::SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, data::SoccerDirtyTable());
}

TEST(HolisticTest, HandlesNulledCoalitionTables) {
  HolisticRepair alg;
  Table masked = data::SoccerDirtyTable();
  for (const CellRef cell :
       {data::SoccerCell(5, "City"), data::SoccerCell(3, "Team")}) {
    masked.Set(cell, Value::Null());
  }
  EXPECT_TRUE(alg.Repair(data::SoccerConstraints(), masked).ok());
}

}  // namespace
}  // namespace trex::repair
