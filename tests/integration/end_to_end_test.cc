// End-to-end workflows across modules: CSV in -> parse DCs -> repair ->
// explain -> act on the explanation -> re-repair. These mirror the
// examples/ binaries and the §4 demo scenario.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "core/compare.h"
#include "serving/report.h"
#include "serving/session.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"
#include "repair/fd_repair.h"
#include "repair/holoclean.h"
#include "repair/holistic.h"
#include "repair/metrics.h"
#include "table/csv.h"

namespace trex {
namespace {

TEST(EndToEnd, CsvToExplanation) {
  // Load the paper's table from CSV text, parse the DCs from text, run
  // the whole pipeline.
  const char* csv =
      "Team,City,Country,League,Year,Place\n"
      "Barcelona,Barcelona,Spain,La Liga,2017,1\n"
      "Atletico Madrid,Madrid,Spain,La Liga,2017,2\n"
      "Real Madrid,Madrid,Spain,La Liga,2017,3\n"
      "Chelsea,London,England,Premier League,2017,1\n"
      "Real Madrid,Capital,España,La Liga,2016,1\n"
      "Real Madrid,Madrid,Spain,La Liga,2015,1\n";
  auto table = ReadCsv(csv);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(*table, data::SoccerDirtyTable());

  auto dcs = dc::ParseDcSet(R"(
C1: !(t1.Team == t2.Team & t1.City != t2.City)
C2: !(t1.City == t2.City & t1.Country != t2.Country)
C3: !(t1.League == t2.League & t1.Country != t2.Country)
C4: !(t1.Team != t2.Team & t1.Year == t2.Year & t1.League == t2.League & t1.Place == t2.Place)
)",
                            table->schema());
  ASSERT_TRUE(dcs.ok()) << dcs.status();

  TRexSession session(repair::MakeAlgorithm1(), *dcs, *table);
  ASSERT_TRUE(session.Repair().ok());
  auto target = session.CellAt(4, "Country");
  ASSERT_TRUE(target.ok());
  auto ex = session.ExplainConstraints(*target);
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->ranked[0].label, "C3");
  EXPECT_NEAR(ex->ranked[0].shapley, 2.0 / 3.0, 1e-12);
}

TEST(EndToEnd, DemoScenarioBadConstraintDebugging) {
  // §4: start with a deliberately bad constraint that corrupts the
  // repair of a cell, find it via the explanation, remove it, re-repair.
  auto generated = data::GenerateSoccer({.num_rows = 30, .seed = 71});
  Table dirty = generated.clean;

  // Poison pill: a wrong FD City -> Team that will rewrite Team cells.
  auto bad =
      dc::ParseDc("BAD: !(t1.City == t2.City & t1.Team != t2.Team)",
                  dirty.schema());
  ASSERT_TRUE(bad.ok());
  dc::DcSet dcs = generated.dcs;
  dcs.Add(*bad);

  // A rule repairer that acts on the bad constraint.
  std::vector<repair::RepairRule> rules{
      {"C1", repair::RuleAction::kSetMostCommon, "City", ""},
      {"C2", repair::RuleAction::kSetMostCommonGiven, "Country", "City"},
      {"C3", repair::RuleAction::kSetMostCommon, "Country", ""},
      {"BAD", repair::RuleAction::kSetMostCommonGiven, "Team", "City"}};
  auto alg = std::make_shared<repair::RuleRepair>("demo", rules);

  TRexSession session(alg, dcs, dirty);
  ASSERT_TRUE(session.Repair().ok());
  // The bad constraint rewrites some team cell wrongly.
  ASSERT_FALSE(session.repaired_cells().empty());
  const RepairedCell wrong = session.repaired_cells().front();
  EXPECT_NE(generated.clean.at(wrong.cell), wrong.new_value)
      << "the demo premise: the repair made the data worse";

  // Explain: the bad constraint must be ranked first.
  auto ex = session.ExplainConstraints(wrong.cell);
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_EQ(ex->ranked[0].label, "BAD");

  // Act on the explanation: remove the top constraint, re-repair.
  ASSERT_TRUE(session.RemoveConstraint(ex->ranked[0].label).ok());
  ASSERT_TRUE(session.Repair().ok());
  EXPECT_TRUE(session.repaired_cells().empty());  // data was clean
}

TEST(EndToEnd, DemoScenarioBadCellDebugging) {
  // §4, cell flavor: appropriate DCs, but a poisoned cell causes a wrong
  // repair; the cell explanation surfaces influential cells, the user
  // fixes one, and the repair improves.
  Table dirty = data::SoccerDirtyTable();
  // Poison: make 'Capital' the majority city for Real Madrid, so C1
  // repairs t3/t6 *away* from Madrid... instead poison t6[City].
  dirty.Set(data::SoccerCell(6, "City"), Value("Capital"));
  // Now Team 'Real Madrid' has cities {Madrid(t3), Capital(t5, t6)}:
  // most common city overall is Madrid(t2,t3) vs Capital(t5,t6) — tie
  // broken by value: "Capital" < "Madrid", so C1 rewrites t3 to Capital.
  auto alg = repair::MakeAlgorithm1();
  TRexSession session(alg, data::SoccerConstraints(), dirty);
  ASSERT_TRUE(session.Repair().ok());
  const Value t3_city = session.clean().at(data::SoccerCell(3, "City"));
  ASSERT_EQ(t3_city, Value("Capital")) << "poison premise";

  // Explain the wrong repair of t3[City]; influential cells should
  // include the poisoned t6[City].
  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 400;
  options.seed = 73;
  auto ex = session.ExplainCells(data::SoccerCell(3, "City"), options);
  ASSERT_TRUE(ex.ok()) << ex.status();
  std::map<std::string, double> values;
  for (const PlayerScore& p : ex->ranked) values[p.label] = p.shapley;
  EXPECT_GT(values.at("t6[City]"), 0.0);

  // Fix the poisoned cell and re-repair: t3 keeps Madrid.
  ASSERT_TRUE(
      session.SetDirtyCell(data::SoccerCell(6, "City"), Value("Madrid"))
          .ok());
  ASSERT_TRUE(session.Repair().ok());
  EXPECT_EQ(session.clean().at(data::SoccerCell(3, "City")),
            Value("Madrid"));
  EXPECT_EQ(session.clean().at(data::SoccerTargetCell()), Value("Spain"));
}

TEST(EndToEnd, AllRepairersAreExplainable) {
  // T-REx is black-box: every bundled repairer must support the full
  // explain pipeline on the paper's table.
  const Table dirty = data::SoccerDirtyTable();
  const dc::DcSet dcs = data::SoccerConstraints();

  std::vector<std::shared_ptr<repair::RepairAlgorithm>> algorithms;
  algorithms.push_back(repair::MakeAlgorithm1());
  algorithms.push_back(std::make_shared<repair::HoloCleanRepair>());
  algorithms.push_back(std::make_shared<repair::HolisticRepair>());
  algorithms.push_back(std::make_shared<repair::FdRepair>());

  for (const auto& alg : algorithms) {
    TRexSession session(alg, dcs, dirty);
    ASSERT_TRUE(session.Repair().ok()) << alg->name();
    // All four algorithms fix t5[Country] on this table.
    ASSERT_EQ(session.clean().at(data::SoccerTargetCell()), Value("Spain"))
        << alg->name();

    auto constraint_ex =
        session.ExplainConstraints(data::SoccerTargetCell());
    ASSERT_TRUE(constraint_ex.ok()) << alg->name() << ": "
                                    << constraint_ex.status();
    EXPECT_EQ(constraint_ex->ranked.size(), 4u) << alg->name();
    EXPECT_GT(constraint_ex->TotalAttribution(), 0.0) << alg->name();

    CellOptions options;
    options.policy = AbsentCellPolicy::kNull;
    options.num_samples = 60;
    auto cell_ex =
        session.ExplainCells(data::SoccerTargetCell(), options);
    ASSERT_TRUE(cell_ex.ok()) << alg->name() << ": " << cell_ex.status();
    EXPECT_FALSE(cell_ex->ranked.empty()) << alg->name();
  }
}

TEST(EndToEnd, RepairQualityPipelineOnSyntheticData) {
  auto generated = data::GenerateSoccer({.num_rows = 60, .seed = 79});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.04;
  inject.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  inject.seed = 80;
  auto injected = data::InjectErrors(generated.clean, inject);

  repair::FdRepair alg;
  auto repaired = alg.Repair(generated.dcs, injected.dirty);
  ASSERT_TRUE(repaired.ok());
  auto quality = repair::EvaluateRepair(injected.dirty, *repaired,
                                        generated.clean, generated.dcs);
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality->f1, 0.5) << quality->ToString();
}

TEST(EndToEnd, ExplanationComparisonAcrossIterateLoop) {
  // §3's iterate loop, quantified: explain, remove the top constraint,
  // re-repair, re-explain, and measure how the explanation shifted.
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());
  ASSERT_TRUE(session.Repair().ok());
  auto before = session.ExplainConstraints(data::SoccerTargetCell());
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(session.RemoveConstraint("C3").ok());
  ASSERT_TRUE(session.Repair().ok());
  auto after = session.ExplainConstraints(data::SoccerTargetCell());
  ASSERT_TRUE(after.ok());  // C1+C2 still repair the cell

  auto cmp = CompareExplanations(*before, *after, /*top_k=*/2);
  ASSERT_TRUE(cmp.ok()) << cmp.status();
  EXPECT_EQ(cmp->common_players, 3u);  // C1, C2, C4
  // C1 and C2 jumped from 1/6 to 1/2 each: a large mean shift.
  EXPECT_GT(cmp->mean_abs_shift, 0.2);
  // Their relative order (tie) and C4's bottom rank are preserved.
  EXPECT_GE(cmp->kendall_tau, 0.99);
}

TEST(EndToEnd, BlackBoxCacheNeverChangesOutcomes) {
  // Property: memoization must be semantically invisible. Evaluate a
  // batch of random cell coalitions with the cache on and off and
  // require identical outcomes.
  auto alg = repair::MakeAlgorithm1();
  auto cached = BlackBoxRepair::Make(alg.get(), data::SoccerConstraints(),
                                     data::SoccerDirtyTable(),
                                     data::SoccerTargetCell());
  auto uncached = BlackBoxRepair::Make(alg.get(),
                                       data::SoccerConstraints(),
                                       data::SoccerDirtyTable(),
                                       data::SoccerTargetCell());
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(uncached.ok());
  uncached->set_cache_enabled(false);

  Rng rng(4242);
  const Table dirty = data::SoccerDirtyTable();
  for (int i = 0; i < 60; ++i) {
    std::vector<CellWrite> perturbed;
    for (const CellRef& cell : dirty.AllCells()) {
      if (rng.Bernoulli(0.4)) perturbed.push_back({cell, Value::Null()});
    }
    EXPECT_EQ(cached->EvalPerturbation(perturbed),
              uncached->EvalPerturbation(perturbed))
        << "iteration " << i;
    // Repeat the same table to exercise the cache-hit path.
    EXPECT_EQ(cached->EvalPerturbation(perturbed),
              uncached->EvalPerturbation(perturbed));
  }
  EXPECT_GT(cached->num_cache_hits(), 0u);
  EXPECT_EQ(uncached->num_cache_hits(), 0u);
}

TEST(EndToEnd, ReportsRenderForRealSession) {
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());
  ASSERT_TRUE(session.Repair().ok());
  const std::string screen = RenderRepairScreen(session);
  EXPECT_NE(screen.find("Capital"), std::string::npos);

  auto ex = session.ExplainConstraints(data::SoccerTargetCell());
  ASSERT_TRUE(ex.ok());
  const std::string ranking = RenderRanking(*ex);
  EXPECT_NE(ranking.find("C3"), std::string::npos);
  const std::string json = ExplanationToJson(*ex);
  EXPECT_NE(json.find("\"ranking\""), std::string::npos);
}

}  // namespace
}  // namespace trex
