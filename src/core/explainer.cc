#include "core/explainer.h"

#include <algorithm>

#include "core/engine.h"

namespace trex {

const char* AbsentCellPolicyToString(AbsentCellPolicy policy) {
  switch (policy) {
    case AbsentCellPolicy::kNull:
      return "null";
    case AbsentCellPolicy::kSampleFromColumn:
      return "column-sample";
  }
  return "?";
}

std::vector<PlayerScore> Explanation::TopK(std::size_t k) const {
  const std::size_t count = std::min(k, ranked.size());
  return {ranked.begin(), ranked.begin() + count};
}

double Explanation::TotalAttribution() const {
  double total = 0;
  for (const PlayerScore& p : ranked) total += p.shapley;
  return total;
}

// The explainers are thin adapters over `trex::Engine` (core/engine.h):
// each call wraps a fresh single-use engine around the caller's
// (algorithm, dcs, dirty) triple. Callers issuing many queries against
// one table should hold an `Engine` (or a `TRexSession`) instead, which
// shares the reference repair and the memo caches across queries.

Result<Explanation> ConstraintExplainer::Explain(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Table& dirty, CellRef target) const {
  Engine engine = Engine::Wrap(algorithm, dcs, dirty);
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  request.constraints = options_;
  TREX_ASSIGN_OR_RETURN(ExplainResult result, engine.Explain(request));
  return std::move(*result.explanation);
}

Result<std::vector<InteractionScore>> ConstraintExplainer::ExplainInteractions(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Table& dirty, CellRef target) const {
  Engine engine = Engine::Wrap(algorithm, dcs, dirty);
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kInteractions;
  request.constraints = options_;
  TREX_ASSIGN_OR_RETURN(ExplainResult result, engine.Explain(request));
  return std::move(result.interactions);
}

Result<std::vector<std::vector<std::string>>>
ConstraintExplainer::ExplainRemovalSets(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Table& dirty, CellRef target, std::size_t max_set_size) const {
  Engine engine = Engine::Wrap(algorithm, dcs, dirty);
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kRemovalSets;
  request.constraints = options_;
  request.max_removal_set_size = max_set_size;
  TREX_ASSIGN_OR_RETURN(ExplainResult result, engine.Explain(request));
  return std::move(result.removal_sets);
}

Result<Explanation> CellExplainer::Explain(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Table& dirty, CellRef target) const {
  Engine engine = Engine::Wrap(algorithm, dcs, dirty);
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kCells;
  request.cells = options_;
  TREX_ASSIGN_OR_RETURN(ExplainResult result, engine.Explain(request));
  return std::move(*result.explanation);
}

Result<PlayerScore> CellExplainer::ExplainSingleCell(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Table& dirty, CellRef target, CellRef player_cell) const {
  Engine engine = Engine::Wrap(algorithm, dcs, dirty);
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kSingleCell;
  request.cells = options_;
  request.single_cell = player_cell;
  TREX_ASSIGN_OR_RETURN(ExplainResult result, engine.Explain(request));
  return std::move(*result.single_cell);
}

}  // namespace trex
