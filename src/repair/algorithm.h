// The black-box repair-algorithm interface T-REx explains.
//
// T-REx (paper §1) is agnostic to the repair approach: it only requires a
// deterministic function `Alg(C, T^d) -> T^c`. Every repairer in this
// library implements `RepairAlgorithm`; the Shapley games in src/core
// query it with perturbed inputs (constraint subsets / cell coalitions)
// and never look inside.
//
// Determinism contract: two calls with equal `(dcs, dirty)` must return
// equal tables — otherwise Shapley values are ill-defined. All bundled
// repairers use fixed iteration orders and value-ordered tie-breaking; no
// wall-clock, no unseeded randomness.

#ifndef TREX_REPAIR_ALGORITHM_H_
#define TREX_REPAIR_ALGORITHM_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "dc/constraint.h"
#include "dc/graph.h"
#include "table/table.h"

namespace trex::repair {

/// Abstract deterministic repair algorithm.
class RepairAlgorithm {
 public:
  virtual ~RepairAlgorithm() = default;

  /// Human-readable identifier used in reports and benchmarks.
  virtual std::string name() const = 0;

  /// Repairs `dirty` under the constraint set `dcs` and returns the clean
  /// table. Must not mutate inputs; must be deterministic; must accept
  /// tables containing nulls (Shapley coalition complements). Must also
  /// be safe to call concurrently from multiple threads (stateless, or
  /// internally synchronized): the engine's sharded samplers invoke it
  /// in parallel when `EngineOptions::num_threads > 1`. All bundled
  /// repairers are stateless.
  [[nodiscard]] virtual Result<Table> Repair(const dc::DcSet& dcs,
                               const Table& dirty) const = 0;

  /// Optionally exposes which columns can influence which under this
  /// algorithm (reads -> writes), enabling *sound* relevant-cell pruning
  /// in cell explanations. Black-box algorithms return nullopt and the
  /// engine falls back to the conservative DC-derived graph.
  ///
  /// Contract for a returned graph, which the constraint game's memo
  /// relies on (`BlackBoxRepair::dummy_constraints`):
  ///   * it is the union of the single-constraint graphs
  ///     `InfluenceGraph(dcs.Subset({c}))` over c in `dcs`;
  ///   * a constraint's presence changes only the columns its
  ///     single-constraint graph writes (those with an incoming edge)
  ///     and the columns those reach. A constraint whose written columns
  ///     cannot reach column A therefore leaves every cell of A
  ///     unchanged: Alg(S)[A] = Alg(S ∪ {c})[A] for every S.
  virtual std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const {
    (void)dcs;
    (void)schema;
    return std::nullopt;
  }
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_ALGORITHM_H_
