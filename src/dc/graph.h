// Attribute dependency graph: which columns can influence which through
// the constraint set / repair actions.
//
// Used for *relevant-cell pruning* in Shapley cell explanations: cells in
// columns that cannot (transitively) influence the target cell's column
// are dummy players and can be skipped. Two builders exist:
//
//  * `FromDcSet` — conservative for a black-box repairer: every column a
//    DC reads may influence every column that DC reads (any of them could
//    be the one the repairer rewrites).
//  * Precise construction via `AddInfluence` — used by repairers that
//    expose their write-sets (e.g. `RuleRepair`: C1 reads {Team, City} and
//    writes City), giving tighter pruning such as excluding `t1[Place]`
//    for the paper's running example.

#ifndef TREX_DC_GRAPH_H_
#define TREX_DC_GRAPH_H_

#include <set>
#include <vector>

#include "dc/constraint.h"
#include "table/table.h"

namespace trex::dc {

/// Directed influence graph over column indices.
class AttributeGraph {
 public:
  explicit AttributeGraph(std::size_t num_columns)
      : reverse_edges_(num_columns) {}

  /// Conservative graph from a DC set (see file comment).
  static AttributeGraph FromDcSet(const DcSet& dcs, std::size_t num_columns);

  /// Declares that `from_col` can influence `to_col`.
  void AddInfluence(std::size_t from_col, std::size_t to_col);

  std::size_t num_columns() const { return reverse_edges_.size(); }

  /// The direct influencers of `col` (its incoming edges). Non-empty iff
  /// the graph's algorithm may write `col`.
  const std::set<std::size_t>& Influencers(std::size_t col) const;

  /// All columns that can transitively influence `target_col`, including
  /// `target_col` itself (reverse reachability).
  std::set<std::size_t> InfluencingColumns(std::size_t target_col) const;

 private:
  // reverse_edges_[to] = set of direct influencers.
  std::vector<std::set<std::size_t>> reverse_edges_;
};

/// The cells that can influence the repair of `target` under `graph`:
/// every row's cells in the influencing columns. The target cell itself is
/// included (it is a regular player in the paper's cell game).
std::vector<CellRef> RelevantCells(const Table& table,
                                   const AttributeGraph& graph,
                                   CellRef target);

}  // namespace trex::dc

#endif  // TREX_DC_GRAPH_H_
