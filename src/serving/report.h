// Rendering of explanations and repair screens.
//
// Text stand-ins for the GUI's three screens (paper Figure 3): the repair
// screen shows the dirty/clean diff with highlight markers; the
// explanation screen ranks DCs or cells with proportional bars and,
// for cells, a green-graded heatmap over the table — "the darker the
// color, the more influencing the DC/cell is" (§3).

#ifndef TREX_SERVING_REPORT_H_
#define TREX_SERVING_REPORT_H_

#include <string>

#include "core/engine.h"
#include "serving/session.h"
#include "table/printer.h"

namespace trex {

/// Rendering options for reports.
struct ReportOptions {
  PrinterOptions printer;
  /// Rows shown in ranking tables (0 = all).
  std::size_t top_k = 0;
  /// Width of the proportional bar column.
  std::size_t bar_width = 24;
};

/// Renders a ranked Shapley table, e.g.
///
///   rank  player      shapley   stderr  bar
///   ----  ----------  --------  ------  ------------------------
///   1     C3          0.6667    -       ########################
///   2     C1          0.1667    -       ######
std::string RenderRanking(const Explanation& explanation,
                          const ReportOptions& options = {});

/// Renders the repair screen: the dirty table with dirty-cell markers
/// followed by the clean table with repaired-cell markers (Figure 2 /
/// Figure 3b). Requires `session.has_repair()`.
std::string RenderRepairScreen(const TRexSession& session,
                               const ReportOptions& options = {});

/// Renders the cell-explanation heatmap: the dirty table with heat
/// markers graded by normalized Shapley value (Figure 3c). Only
/// meaningful for cell explanations.
std::string RenderCellHeatmap(const Table& dirty,
                              const Explanation& explanation,
                              const ReportOptions& options = {});

/// Serializes an explanation as a JSON object (stable field order) for
/// downstream tooling.
std::string ExplanationToJson(const Explanation& explanation);

/// Renders pairwise constraint interactions, strongest first, with
/// complement/substitute annotations.
std::string RenderInteractions(
    const std::vector<InteractionScore>& interactions,
    std::size_t top_k = 0);

/// Renders counterfactual removal sets, e.g.
///   remove {C1, C3} -> repair does not happen
std::string RenderRemovalSets(
    const std::vector<std::vector<std::string>>& removal_sets);

}  // namespace trex

#endif  // TREX_SERVING_REPORT_H_
