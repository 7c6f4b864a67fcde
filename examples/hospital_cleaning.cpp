// Cleaning a hospital-quality table with the HoloClean-style repairer
// and explaining its decisions — the paper's actual deployment shape
// (T-REx wrapping HoloClean), on the second domain.
//
//   * generate a consistent hospital table (Zip -> City/State FDs, ...);
//   * inject seeded errors into the geography columns;
//   * repair with `HoloCleanRepair` and score against ground truth;
//   * explain a repaired cell by constraint (exact Shapley; 2^|DCs|
//     repair runs is fine) and estimate one suspect cell's influence
//     with the Example 2.5 single-cell loop (2 runs per sample);
//   * switch the black box to the fast `FdRepair` for a *full* cell
//     ranking — the same explainer code, a different algorithm: the
//     black-box contract in action. Full cell rankings of a heavyweight
//     repairer are possible but cost (#players + 1) repair runs per
//     sample; budget accordingly.
//
// Build & run:   ./build/examples/hospital_cleaning

#include <cstdio>

#include "serving/report.h"
#include "serving/session.h"
#include "data/errors.h"
#include "data/hospital.h"
#include "dc/violation.h"
#include "repair/fd_repair.h"
#include "repair/holoclean.h"
#include "repair/metrics.h"

int main() {
  using namespace trex;  // NOLINT

  auto generated = data::GenerateHospital({.num_rows = 60, .seed = 99});
  const Schema& schema = generated.clean.schema();

  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.03;
  inject.columns = {schema.IndexOf("City").ValueOrDie(),
                    schema.IndexOf("State").ValueOrDie()};
  inject.seed = 100;
  auto injected = data::InjectErrors(generated.clean, inject);

  std::printf("hospital table: %zu rows, %zu injected errors, "
              "%zu violations\n",
              injected.dirty.num_rows(), injected.injected.size(),
              dc::FindViolations(injected.dirty, generated.dcs).size());
  for (const auto& error : injected.injected) {
    std::printf("  injected %s\n", error.ToString(schema).c_str());
  }

  TRexSession session(std::make_shared<repair::HoloCleanRepair>(),
                      generated.dcs, injected.dirty);
  if (!session.Repair().ok()) return 1;

  auto quality = repair::EvaluateRepair(injected.dirty, session.clean(),
                                        generated.clean, generated.dcs);
  if (!quality.ok()) return 1;
  std::printf("\nHoloClean-style repair: %s\n",
              quality->ToString().c_str());

  // Find a correctly repaired cell to explain.
  CellRef target{};
  bool found = false;
  for (const RepairedCell& repaired : session.repaired_cells()) {
    const Value& truth = generated.clean.at(repaired.cell);
    if (!truth.is_null() && repaired.new_value == truth) {
      target = repaired.cell;
      found = true;
      std::printf("\nexplaining %s\n",
                  repaired.ToString(schema).c_str());
      break;
    }
  }
  if (!found) {
    std::printf("no correct repair found to explain — rerun with "
                "another seed\n");
    return 0;
  }

  // (a) Constraint ranking against the HoloClean black box: exact
  //     Shapley, 2^5 + 1 repair runs.
  auto by_dc = session.ExplainConstraints(target);
  if (!by_dc.ok()) return 1;
  std::printf("by constraint (HoloClean black box, exact):\n%s\n",
              RenderRanking(*by_dc).c_str());

  // (b) One suspect cell's influence via the Example 2.5 loop: the
  //     same-zip neighbour's City cell. 2 repair runs per sample.
  const std::size_t zip_col = schema.IndexOf("Zip").ValueOrDie();
  CellRef neighbour{};
  for (std::size_t r = 0; r < injected.dirty.num_rows(); ++r) {
    if (r == target.row) continue;
    const Value& zip = injected.dirty.at(r, zip_col);
    if (!zip.is_null() &&
        zip == injected.dirty.at(target.row, zip_col)) {
      neighbour = CellRef{r, target.col};
      break;
    }
  }
  CellOptions single;
  single.policy = AbsentCellPolicy::kNull;
  single.num_samples = 25;
  single.seed = 101;
  auto influence = session.ExplainSingleCell(target, neighbour, single);
  if (influence.ok()) {
    std::printf("single-cell estimate (HoloClean black box): "
                "Shap(%s) = %.4f ± %.4f  [%zu samples]\n",
                influence->label.c_str(), influence->shapley,
                influence->std_error, influence->num_samples);
  }

  // (c) Full cell ranking with a cheap black box: identical explainer,
  //     different algorithm.
  TRexSession fd_session(std::make_shared<repair::FdRepair>(),
                         generated.dcs, injected.dirty);
  if (!fd_session.Repair().ok()) return 1;
  CellOptions ranking;
  ranking.policy = AbsentCellPolicy::kNull;
  ranking.num_samples = 80;
  ranking.seed = 102;
  auto by_cell = fd_session.ExplainCells(target, ranking);
  if (by_cell.ok()) {
    ReportOptions report;
    report.top_k = 8;
    std::printf("\nfull cell ranking (FdRepair black box):\n%s\n",
                RenderRanking(*by_cell, report).c_str());
  } else {
    std::printf("\n(FdRepair did not repair %s: %s)\n",
                target.ToString(schema).c_str(),
                by_cell.status().ToString().c_str());
  }
  return 0;
}
