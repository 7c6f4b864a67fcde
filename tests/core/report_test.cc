#include "serving/report.h"

#include <gtest/gtest.h>

#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

namespace trex {
namespace {

Explanation SoccerConstraintExplanation() {
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());
  EXPECT_TRUE(session.Repair().ok());
  auto ex = session.ExplainConstraints(data::SoccerTargetCell());
  EXPECT_TRUE(ex.ok());
  return std::move(ex).value();
}

Explanation SoccerCellExplanation() {
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());
  EXPECT_TRUE(session.Repair().ok());
  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 100;
  auto ex = session.ExplainCells(data::SoccerTargetCell(), options);
  EXPECT_TRUE(ex.ok());
  return std::move(ex).value();
}

TEST(RenderRankingTest, ShowsRanksAndValues) {
  const std::string out = RenderRanking(SoccerConstraintExplanation());
  EXPECT_NE(out.find("t5[Country]"), std::string::npos);
  EXPECT_NE(out.find("España -> Spain"), std::string::npos);
  EXPECT_NE(out.find("C3"), std::string::npos);
  EXPECT_NE(out.find("0.6667"), std::string::npos);
  EXPECT_NE(out.find("0.1667"), std::string::npos);
  EXPECT_NE(out.find("total attribution: 1.0000"), std::string::npos);
}

TEST(RenderRankingTest, BarsProportionalToShapley) {
  const std::string out = RenderRanking(SoccerConstraintExplanation());
  // C3's bar (24 chars at default width) is the longest; C1's is 6.
  EXPECT_NE(out.find(std::string(24, '#')), std::string::npos);
  EXPECT_EQ(out.find(std::string(25, '#')), std::string::npos);
}

TEST(RenderRankingTest, TopKLimitsRows) {
  ReportOptions options;
  options.top_k = 1;
  const std::string out =
      RenderRanking(SoccerConstraintExplanation(), options);
  EXPECT_NE(out.find("C3"), std::string::npos);
  EXPECT_EQ(out.find("C4"), std::string::npos);
}

TEST(RenderRepairScreenTest, ShowsBothTablesAndDiff) {
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());
  ASSERT_TRUE(session.Repair().ok());
  const std::string out = RenderRepairScreen(session);
  EXPECT_NE(out.find("dirty table"), std::string::npos);
  EXPECT_NE(out.find("clean table"), std::string::npos);
  EXPECT_NE(out.find("*Capital*"), std::string::npos);   // dirty marker
  EXPECT_NE(out.find("[Madrid]"), std::string::npos);    // repaired marker
  EXPECT_NE(out.find("t5[Country]: España -> Spain"), std::string::npos);
}

TEST(RenderCellHeatmapTest, MarksTopCells) {
  const Explanation ex = SoccerCellExplanation();
  const std::string out =
      RenderCellHeatmap(data::SoccerDirtyTable(), ex);
  EXPECT_NE(out.find("heatmap"), std::string::npos);
  // The top cell gets the (+++) marker.
  EXPECT_NE(out.find("(+++)"), std::string::npos);
}

TEST(ExplanationToJsonTest, WellFormedAndComplete) {
  const std::string json =
      ExplanationToJson(SoccerConstraintExplanation());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"target\":\"t5[Country]\""), std::string::npos);
  EXPECT_NE(json.find("\"old_value\":\"España\""), std::string::npos);
  EXPECT_NE(json.find("\"new_value\":\"Spain\""), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"exact\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"C3\""), std::string::npos);
  EXPECT_NE(json.find("\"shapley\":0.666666"), std::string::npos);
}

TEST(ExplanationToJsonTest, CellCoordinatesIncluded) {
  const std::string json = ExplanationToJson(SoccerCellExplanation());
  EXPECT_NE(json.find("\"row\":"), std::string::npos);
  EXPECT_NE(json.find("\"col\":"), std::string::npos);
  EXPECT_NE(json.find("\"num_samples\":"), std::string::npos);
}

TEST(RenderInteractionsTest, AnnotatesKinds) {
  std::vector<InteractionScore> interactions{
      {"C1", "C2", 0.5}, {"C1", "C3", -0.25}, {"C1", "C4", 0.0}};
  const std::string out = RenderInteractions(interactions);
  EXPECT_NE(out.find("I(C1, C2) = +0.5000  (complements)"),
            std::string::npos);
  EXPECT_NE(out.find("I(C1, C3) = -0.2500  (substitutes)"),
            std::string::npos);
  EXPECT_NE(out.find("I(C1, C4) = +0.0000  (independent)"),
            std::string::npos);
}

TEST(RenderInteractionsTest, TopKLimits) {
  std::vector<InteractionScore> interactions{
      {"C1", "C2", 0.5}, {"C1", "C3", -0.25}};
  const std::string out = RenderInteractions(interactions, 1);
  EXPECT_NE(out.find("C2"), std::string::npos);
  EXPECT_EQ(out.find("C3"), std::string::npos);
}

TEST(RenderRemovalSetsTest, RendersSetsAndEmptyCase) {
  const std::string out =
      RenderRemovalSets({{"C1", "C3"}, {"C2", "C3"}});
  EXPECT_NE(out.find("remove {C1, C3} -> repair does not happen"),
            std::string::npos);
  EXPECT_NE(out.find("remove {C2, C3}"), std::string::npos);
  EXPECT_NE(RenderRemovalSets({}).find("no removal set"),
            std::string::npos);
}

TEST(ExplanationToJsonTest, EscapesSpecialCharacters) {
  Explanation ex;
  ex.target_label = "t1[\"A\"]";
  ex.old_value = Value("line\nbreak");
  ex.new_value = Value("quote\"end");
  ex.method = "exact";
  const std::string json = ExplanationToJson(ex);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace trex
