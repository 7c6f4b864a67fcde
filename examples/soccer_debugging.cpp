// The paper's §4 demo scenario as a scripted walkthrough: use Shapley
// explanations to debug (a) a wrong denial constraint and (b) a poisoned
// cell, iterating exactly the way the GUI loop does — repair, explain,
// edit, repair again.
//
// Build & run:   ./build/examples/soccer_debugging

#include <cstdio>

#include "serving/report.h"
#include "serving/session.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "repair/rule_repair.h"
#include "repair/soccer_algorithm1.h"

namespace {

using namespace trex;  // NOLINT

void Banner(const char* text) { std::printf("\n### %s\n\n", text); }

int DebugBadConstraint() {
  Banner("Part 1: a wrong constraint corrupts the repair");

  // A clean synthetic league table...
  auto generated = data::GenerateSoccer({.num_rows = 25, .seed = 2020});
  // ...but the analyst wrote one bad rule: "every city has one team".
  auto bad = dc::ParseDc(
      "OneTeamPerCity: !(t1.City == t2.City & t1.Team != t2.Team)",
      generated.clean.schema());
  if (!bad.ok()) return 1;
  dc::DcSet dcs = generated.dcs;
  dcs.Add(*bad);

  std::vector<repair::RepairRule> rules{
      {"C1", repair::RuleAction::kSetMostCommon, "City", ""},
      {"C2", repair::RuleAction::kSetMostCommonGiven, "Country", "City"},
      {"C3", repair::RuleAction::kSetMostCommon, "Country", ""},
      {"OneTeamPerCity", repair::RuleAction::kSetMostCommonGiven, "Team",
       "City"}};
  auto alg = std::make_shared<repair::RuleRepair>("league-cleaner", rules);

  TRexSession session(alg, dcs, generated.clean);
  if (!session.Repair().ok()) return 1;
  std::printf("the data was CLEAN, yet the repairer changed %zu cells:\n",
              session.repaired_cells().size());
  for (std::size_t i = 0; i < session.repaired_cells().size() && i < 5;
       ++i) {
    std::printf("  %s\n", session.repaired_cells()[i]
                              .ToString(session.dirty().schema())
                              .c_str());
  }

  const CellRef victim = session.repaired_cells().front().cell;
  std::printf("\nexplaining the unwanted repair of %s:\n\n",
              victim.ToString(session.dirty().schema()).c_str());
  auto ex = session.ExplainConstraints(victim);
  if (!ex.ok()) return 1;
  std::printf("%s\n", RenderRanking(*ex).c_str());

  const std::string culprit = ex->ranked.front().label;
  std::printf("-> acting on the explanation: removing '%s'\n",
              culprit.c_str());
  if (!session.RemoveConstraint(culprit).ok()) return 1;
  if (!session.Repair().ok()) return 1;
  std::printf("after re-repair the algorithm changes %zu cells. fixed!\n",
              session.repaired_cells().size());
  return 0;
}

int DebugPoisonedCell() {
  Banner("Part 2: a poisoned cell flips a repair the wrong way");

  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(6, "City"), Value("Capital"));
  std::printf("someone also vandalised t6[City] := 'Capital'...\n");

  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      dirty);
  if (!session.Repair().ok()) return 1;
  std::printf("%s\n", RenderRepairScreen(session).c_str());
  std::printf("t3[City] was 'repaired' to %s — wrong!\n\n",
              session.clean().at(data::SoccerCell(3, "City"))
                  .ToString().c_str());

  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;
  options.num_samples = 600;
  auto ex = session.ExplainCells(data::SoccerCell(3, "City"), options);
  if (!ex.ok()) return 1;
  ReportOptions report;
  report.top_k = 6;
  std::printf("which cells drove that bogus repair?\n%s\n",
              RenderRanking(*ex, report).c_str());

  std::printf("-> t6[City] shows up with positive influence; fix it and "
              "re-repair\n");
  if (!session
           .SetDirtyCell(data::SoccerCell(6, "City"), Value("Madrid"))
           .ok()) {
    return 1;
  }
  if (!session.Repair().ok()) return 1;
  std::printf("t3[City] now stays %s; t5[Country] still repairs to %s\n",
              session.clean().at(data::SoccerCell(3, "City"))
                  .ToString().c_str(),
              session.clean().at(data::SoccerTargetCell())
                  .ToString().c_str());
  return 0;
}

}  // namespace

int main() {
  if (int rc = DebugBadConstraint(); rc != 0) return rc;
  if (int rc = DebugPoisonedCell(); rc != 0) return rc;
  return 0;
}
