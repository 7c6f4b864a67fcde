// Experiment: §4 demo scenario — explanation-guided debugging.
//
// Scenario A (constraints): start with an initial DC set containing a
// deliberately wrong constraint; HoloClean-style repair corrupts cells;
// T-REx ranks the DCs for a misrepaired cell; removing the top-ranked DC
// and re-repairing improves repair quality ("We will show how removing
// or changing the highest ranked DCs improves the repair of the
// specified table cell").
//
// Scenario B (cells): appropriate DCs, but poisoned cells cause a wrong
// repair; T-REx ranks the influencing cells; fixing the top-ranked
// *other* cell and re-repairing yields the correct value.

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "serving/report.h"
#include "serving/session.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "repair/metrics.h"
#include "repair/rule_repair.h"
#include "repair/soccer_algorithm1.h"

namespace {

using namespace trex;  // NOLINT

void ScenarioA() {
  std::printf("\n--- Scenario A: debugging a wrong constraint ---\n");
  auto generated = data::GenerateSoccer({.num_rows = 40, .seed = 91});

  // The analyst's initial constraint set includes a wrong FD
  // City -> Team ("every city has one team").
  auto bad = dc::ParseDc("BAD: !(t1.City == t2.City & t1.Team != t2.Team)",
                         generated.clean.schema());
  if (!bad.ok()) std::exit(1);
  dc::DcSet dcs = generated.dcs;
  dcs.Add(*bad);

  std::vector<repair::RepairRule> rules{
      {"C1", repair::RuleAction::kSetMostCommon, "City", ""},
      {"C2", repair::RuleAction::kSetMostCommonGiven, "Country", "City"},
      {"C3", repair::RuleAction::kSetMostCommon, "Country", ""},
      {"BAD", repair::RuleAction::kSetMostCommonGiven, "Team", "City"}};
  auto alg = std::make_shared<repair::RuleRepair>("demo-repairer", rules);

  TRexSession session(alg, dcs, generated.clean);
  if (!session.Repair().ok()) std::exit(1);
  auto before = repair::EvaluateRepair(generated.clean, session.clean(),
                                       generated.clean, generated.dcs);
  if (!before.ok()) std::exit(1);
  std::printf("repair on CLEAN data with the bad DC: %s\n",
              before->ToString().c_str());
  if (session.repaired_cells().empty()) {
    std::printf("premise failed: bad DC caused no damage\n");
    bench::Verdict(false, "scenario A premise");
    return;
  }
  const RepairedCell victim = session.repaired_cells().front();
  std::printf("misrepaired cell of interest: %s\n",
              victim.ToString(generated.clean.schema()).c_str());

  auto ex = session.ExplainConstraints(victim.cell);
  if (!ex.ok()) std::exit(1);
  std::printf("%s", RenderRanking(*ex).c_str());
  const std::string culprit = ex->ranked[0].label;
  bench::Verdict(culprit == "BAD",
                 "the wrong constraint is ranked #1 for the misrepair");

  if (!session.RemoveConstraint(culprit).ok()) std::exit(1);
  if (!session.Repair().ok()) std::exit(1);
  auto after = repair::EvaluateRepair(generated.clean, session.clean(),
                                      generated.clean, generated.dcs);
  if (!after.ok()) std::exit(1);
  std::printf("after removing '%s' and re-repairing: %s\n",
              culprit.c_str(), after->ToString().c_str());
  bench::Verdict(after->cells_changed < before->cells_changed,
                 "removing the top-ranked DC improves the repair "
                 "(fewer wrong changes)");
}

void ScenarioB() {
  std::printf("\n--- Scenario B: debugging poisoned cells ---\n");
  // The paper's table with an extra poisoned cell: t6[City] = Capital
  // makes 'Capital' tie for majority among Real Madrid's cities, so
  // Algorithm 1 rewrites t3[City] to Capital — a wrong repair.
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(6, "City"), Value("Capital"));
  auto alg = repair::MakeAlgorithm1();
  TRexSession session(alg, data::SoccerConstraints(), dirty);
  if (!session.Repair().ok()) std::exit(1);

  const CellRef victim = data::SoccerCell(3, "City");
  std::printf("t3[City] after repair: %s (should be Madrid)\n",
              session.clean().at(victim).ToString().c_str());
  const bool premise = session.clean().at(victim) == Value("Capital");
  bench::Verdict(premise, "poisoned cell causes a wrong repair");
  if (!premise) return;

  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 800;
  options.seed = 92;
  auto ex = session.ExplainCells(victim, options);
  if (!ex.ok()) std::exit(1);
  ReportOptions report;
  report.top_k = 8;
  std::printf("%s", RenderRanking(*ex, report).c_str());

  // The poisoned t6[City] must rank among the influential cells
  // (excluding the victim's own row cells).
  std::map<std::string, double> values;
  for (const PlayerScore& p : ex->ranked) values[p.label] = p.shapley;
  bench::Verdict(values.at("t6[City]") > 0,
                 "the poisoned cell t6[City] carries positive influence");

  if (!session
           .SetDirtyCell(data::SoccerCell(6, "City"), Value("Madrid"))
           .ok()) {
    std::exit(1);
  }
  if (!session.Repair().ok()) std::exit(1);
  std::printf("t3[City] after fixing t6[City] and re-repairing: %s\n",
              session.clean().at(victim).ToString().c_str());
  bench::Verdict(session.clean().at(victim) == Value("Madrid"),
                 "fixing the top influencing cell corrects the repair");
  bench::Verdict(
      session.clean().at(data::SoccerTargetCell()) == Value("Spain"),
      "and the original t5[Country] repair still lands on Spain");
}

}  // namespace

int main() {
  bench::Header("§4 demo scenario: explanation-guided debugging");
  ScenarioA();
  ScenarioB();
  return 0;
}
