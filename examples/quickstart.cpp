// Quickstart: the complete T-REx pipeline on the paper's running example
// in ~60 lines of user code.
//
//   1. Load a dirty table and a set of denial constraints.
//   2. Repair it with a black-box repair algorithm.
//   3. Pick a repaired cell and ask *why*:
//        - which constraints drove the repair (exact Shapley values);
//        - which table cells drove the repair (sampled Shapley values).
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "serving/report.h"
#include "serving/session.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

int main() {
  using namespace trex;  // NOLINT — example brevity

  // 1. Inputs: the La Liga table from the paper's Figure 2a, the four
  //    denial constraints from Figure 1, and the paper's "Algorithm 1"
  //    repairer. Any `repair::RepairAlgorithm` works — T-REx only ever
  //    calls Repair(dcs, table).
  TRexSession session(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                      data::SoccerDirtyTable());

  std::printf("constraints:\n");
  for (const auto& dc : session.dcs().constraints()) {
    std::printf("  %s: %s\n", dc.name().c_str(),
                dc.ToPrettyString(session.dirty().schema()).c_str());
  }

  // 2. Repair (the GUI's "Repair" button).
  if (auto status = session.Repair(); !status.ok()) {
    std::fprintf(stderr, "repair failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", RenderRepairScreen(session).c_str());

  // 3. Explain the repair of t5[Country] (the GUI's "Explain" button).
  const CellRef target = session.CellAt(4, "Country").ValueOrDie();

  auto constraint_ex = session.ExplainConstraints(target);
  if (!constraint_ex.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 constraint_ex.status().ToString().c_str());
    return 1;
  }
  std::printf("why was t5[Country] repaired? — by constraint:\n%s\n",
              RenderRanking(*constraint_ex).c_str());

  CellOptions options;
  options.policy = AbsentCellPolicy::kNull;  // the paper's definition
  options.num_samples = 800;
  auto cell_ex = session.ExplainCells(target, options);
  if (!cell_ex.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 cell_ex.status().ToString().c_str());
    return 1;
  }
  ReportOptions report;
  report.top_k = 8;
  std::printf("why was t5[Country] repaired? — by cell:\n%s\n",
              RenderRanking(*cell_ex, report).c_str());
  std::printf("%s\n",
              RenderCellHeatmap(session.dirty(), *cell_ex).c_str());

  // Beyond rankings: complements/substitutes and counterfactuals.
  auto interactions = session.ExplainConstraintInteractions(target);
  if (interactions.ok() && !interactions->empty()) {
    std::printf("strongest constraint interaction: I(%s, %s) = %+.4f "
                "(positive = acts as a pair)\n",
                interactions->front().label_a.c_str(),
                interactions->front().label_b.c_str(),
                interactions->front().interaction);
  }
  ExplainRequest removal_request;
  removal_request.target = target;
  removal_request.kind = ExplainKind::kRemovalSets;
  auto removal_sets = session.SubmitExplain(removal_request).Wait();
  if (removal_sets.ok()) {
    std::printf("to stop this repair, remove any of:");
    for (const auto& removal : removal_sets->removal_sets) {
      std::printf("  {");
      for (std::size_t i = 0; i < removal.size(); ++i) {
        std::printf("%s%s", i ? "," : "", removal[i].c_str());
      }
      std::printf("}");
    }
    std::printf("\n");
  }

  // Multi-target explanation: every ticket routes to the session's
  // engine, so the targets share one reference repair and the memo
  // caches. Explaining both repaired cells costs one subset sweep
  // instead of two — `cross_request_hits` shows the amortization.
  std::vector<serving::Ticket> tickets;
  for (const RepairedCell& repaired : session.repaired_cells()) {
    ExplainRequest request;
    request.target = repaired.cell;
    request.kind = ExplainKind::kConstraints;
    tickets.push_back(session.SubmitExplain(request));
  }
  std::size_t calls = 0, hits = 0, cross_hits = 0;
  for (serving::Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    if (!result.ok()) continue;
    calls += result->algorithm_calls;
    hits += result->cache_hits;
    cross_hits += result->cross_request_hits;
  }
  std::printf(
      "explanations over %zu targets: %zu algorithm calls, %zu cache hits "
      "(%zu amortized across targets)\n",
      tickets.size(), calls, hits, cross_hits);

  // Machine-readable output for downstream tools.
  std::printf("JSON: %s\n", ExplanationToJson(*constraint_ex).c_str());
  return 0;
}
