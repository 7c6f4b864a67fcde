#include "dc/graph.h"

#include <deque>

#include "common/logging.h"

namespace trex::dc {

AttributeGraph AttributeGraph::FromDcSet(const DcSet& dcs,
                                         std::size_t num_columns) {
  AttributeGraph graph(num_columns);
  for (const DenialConstraint& dc : dcs.constraints()) {
    const std::set<std::size_t> cols = dc.AllColumns();
    for (std::size_t from : cols) {
      for (std::size_t to : cols) {
        graph.AddInfluence(from, to);
      }
    }
  }
  return graph;
}

void AttributeGraph::AddInfluence(std::size_t from_col, std::size_t to_col) {
  TREX_CHECK_LT(from_col, reverse_edges_.size());
  TREX_CHECK_LT(to_col, reverse_edges_.size());
  reverse_edges_[to_col].insert(from_col);
}

const std::set<std::size_t>& AttributeGraph::Influencers(
    std::size_t col) const {
  TREX_CHECK_LT(col, reverse_edges_.size());
  return reverse_edges_[col];
}

std::set<std::size_t> AttributeGraph::InfluencingColumns(
    std::size_t target_col) const {
  TREX_CHECK_LT(target_col, reverse_edges_.size());
  std::set<std::size_t> visited{target_col};
  std::deque<std::size_t> frontier{target_col};
  while (!frontier.empty()) {
    const std::size_t col = frontier.front();
    frontier.pop_front();
    for (std::size_t from : reverse_edges_[col]) {
      if (visited.insert(from).second) frontier.push_back(from);
    }
  }
  return visited;
}

std::vector<CellRef> RelevantCells(const Table& table,
                                   const AttributeGraph& graph,
                                   CellRef target) {
  const std::set<std::size_t> cols = graph.InfluencingColumns(target.col);
  std::vector<CellRef> cells;
  cells.reserve(cols.size() * table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c : cols) {
      cells.push_back(CellRef{r, c});
    }
  }
  return cells;
}

}  // namespace trex::dc
