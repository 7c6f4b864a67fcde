#include "serving/session.h"

#include <gtest/gtest.h>

#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"

namespace trex {
namespace {

TRexSession MakeSession() {
  return TRexSession(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                     data::SoccerDirtyTable());
}

TEST(SessionTest, RepairProducesFigure2Diff) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  ASSERT_TRUE(session.has_repair());
  EXPECT_EQ(session.clean(), data::SoccerCleanTable());
  const auto& repaired = session.repaired_cells();
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[0].cell, data::SoccerCell(5, "City"));
  EXPECT_EQ(repaired[0].old_value, Value("Capital"));
  EXPECT_EQ(repaired[0].new_value, Value("Madrid"));
  EXPECT_EQ(repaired[1].cell, data::SoccerTargetCell());
}

TEST(SessionTest, CellAtResolvesNames) {
  TRexSession session = MakeSession();
  auto cell = session.CellAt(4, "Country");
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(*cell, data::SoccerTargetCell());
  EXPECT_FALSE(session.CellAt(99, "Country").ok());
  EXPECT_FALSE(session.CellAt(0, "Nope").ok());
}

TEST(SessionTest, ExplainBeforeRepairRejected) {
  TRexSession session = MakeSession();
  auto ex = session.ExplainConstraints(data::SoccerTargetCell());
  EXPECT_FALSE(ex.ok());
}

TEST(SessionTest, SubmitExplainBeforeRepairReturnsRejectedTicket) {
  TRexSession session = MakeSession();
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  serving::Ticket ticket = session.SubmitExplain(request);
  EXPECT_FALSE(ticket.valid());
  // Resolved with a recoverable error, like the synchronous paths — no
  // crash on Wait().
  auto result = ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, SubmitExplainMatchesSynchronousPath) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  const CellRef target = data::SoccerTargetCell();

  auto sync = session.ExplainConstraints(target);
  ASSERT_TRUE(sync.ok()) << sync.status();

  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  serving::Ticket ticket = session.SubmitExplain(request);
  ASSERT_TRUE(ticket.valid());
  auto async_result = ticket.Wait();
  ASSERT_TRUE(async_result.ok()) << async_result.status();
  const Explanation& ex = *async_result->explanation;
  ASSERT_EQ(ex.ranked.size(), sync->ranked.size());
  for (std::size_t i = 0; i < ex.ranked.size(); ++i) {
    EXPECT_EQ(ex.ranked[i].label, sync->ranked[i].label);
    EXPECT_EQ(ex.ranked[i].shapley, sync->ranked[i].shapley);
  }
}

TEST(SessionTest, ExplainConstraintsAfterRepair) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  auto ex = session.ExplainConstraints(data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_EQ(ex->ranked[0].label, "C3");
}

TEST(SessionTest, ExplainCellsAfterRepair) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 100;
  auto ex = session.ExplainCells(data::SoccerTargetCell(), options);
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_FALSE(ex->ranked.empty());
}

TEST(SessionTest, ExplainSingleCellWorks) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 100;
  auto score = session.ExplainSingleCell(
      data::SoccerTargetCell(), data::SoccerCell(5, "League"), options);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->shapley, 0.0);
}

TEST(SessionTest, ExplainConstraintInteractions) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  auto interactions =
      session.ExplainConstraintInteractions(data::SoccerTargetCell());
  ASSERT_TRUE(interactions.ok()) << interactions.status();
  ASSERT_EQ(interactions->size(), 6u);  // C(4,2) pairs
  // Strongest pair first: the C1-C2 complement.
  EXPECT_EQ(interactions->front().label_a, "C1");
  EXPECT_EQ(interactions->front().label_b, "C2");
  EXPECT_GT(interactions->front().interaction, 0.0);
  // Requires a repair.
  TRexSession fresh = MakeSession();
  EXPECT_FALSE(fresh.ExplainConstraintInteractions(data::SoccerTargetCell())
                   .ok());
}

TEST(SessionTest, EditInvalidatesRepair) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.Repair().ok());
  ASSERT_TRUE(
      session.SetDirtyCell(data::SoccerCell(5, "City"), Value("Madrid"))
          .ok());
  EXPECT_FALSE(session.has_repair());
  // Explanation now requires a fresh repair.
  EXPECT_FALSE(session.ExplainConstraints(data::SoccerTargetCell()).ok());
  ASSERT_TRUE(session.Repair().ok());
  EXPECT_TRUE(session.has_repair());
}

TEST(SessionTest, FixingCityByHandStillRepairsCountry) {
  // The §4 iteration loop: the user fixes t5[City] manually; re-running
  // the repair still fixes t5[Country] via C2/C3.
  TRexSession session = MakeSession();
  ASSERT_TRUE(
      session.SetDirtyCell(data::SoccerCell(5, "City"), Value("Madrid"))
          .ok());
  ASSERT_TRUE(session.Repair().ok());
  EXPECT_EQ(session.clean().at(data::SoccerTargetCell()), Value("Spain"));
  EXPECT_EQ(session.repaired_cells().size(), 1u);
}

TEST(SessionTest, RemoveConstraintChangesRepair) {
  TRexSession session = MakeSession();
  ASSERT_TRUE(session.RemoveConstraint("C3").ok());
  EXPECT_EQ(session.dcs().size(), 3u);
  ASSERT_TRUE(session.Repair().ok());
  // C1+C2 still repair the country.
  EXPECT_EQ(session.clean().at(data::SoccerTargetCell()), Value("Spain"));

  ASSERT_TRUE(session.RemoveConstraint("C2").ok());
  ASSERT_TRUE(session.Repair().ok());
  // Only C1 remains relevant: city fixed, country not.
  EXPECT_EQ(session.clean().at(data::SoccerTargetCell()), Value("España"));
}

TEST(SessionTest, RemoveUnknownConstraintFails) {
  TRexSession session = MakeSession();
  EXPECT_FALSE(session.RemoveConstraint("C9").ok());
}

TEST(SessionTest, AddConstraint) {
  TRexSession session = MakeSession();
  auto dc = dc::ParseDc("C5: !(t1.Year > 2020)", data::SoccerSchema());
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(session.AddConstraint(*dc).ok());
  EXPECT_EQ(session.dcs().size(), 5u);
  // Duplicate name rejected.
  EXPECT_FALSE(session.AddConstraint(*dc).ok());
}

TEST(SessionTest, ReplaceConstraint) {
  TRexSession session = MakeSession();
  // Replace C3 (League -> Country) with a no-op-ish variant binding on
  // Team instead.
  auto weaker =
      dc::ParseDc("C3: !(t1.Team == t2.Team & t1.Country != t2.Country)",
                  data::SoccerSchema());
  ASSERT_TRUE(weaker.ok());
  ASSERT_TRUE(session.ReplaceConstraint(*weaker).ok());
  EXPECT_EQ(session.dcs().size(), 4u);
  ASSERT_TRUE(session.Repair().ok());
  // Team Real Madrid pairs still force Spain.
  EXPECT_EQ(session.clean().at(data::SoccerTargetCell()), Value("Spain"));

  auto unknown =
      dc::ParseDc("C9: !(t1.Year > 2020)", data::SoccerSchema());
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(session.ReplaceConstraint(*unknown).ok());
}

TEST(SessionTest, SetCellOutOfRangeFails) {
  TRexSession session = MakeSession();
  EXPECT_FALSE(session.SetDirtyCell(CellRef{99, 0}, Value("x")).ok());
}

TEST(SessionDeathTest, CleanBeforeRepairAborts) {
  TRexSession session = MakeSession();
  EXPECT_DEATH(session.clean(), "Repair");
}

}  // namespace
}  // namespace trex
