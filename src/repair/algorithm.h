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

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dc/constraint.h"
#include "dc/graph.h"
#include "table/table.h"

namespace trex::repair {

/// A repair bound to one caller-owned table, keeping the backend's
/// derived state (probe indices, statistics) across repairs of inputs
/// that differ in a few cells (see `RepairAlgorithm::OpenSession`).
///
/// A session works on the bound table's dictionary codes (table/table.h):
/// a code read from the bound table, or returned by its `Intern`, stays
/// valid for it, since its dictionary only grows.
///
/// Contract:
///   * equality with `Repair`: after any sequence of writes,
///     `RepairCodes` leaves the bound table bit-identical (type and bytes
///     of every cell) to `Repair(dcs, T)`, where T is the bound table as
///     it stood before the call;
///   * the undo log: `RepairCodes(&undo)` appends one `CodeWrite` per
///     overwritten cell, holding the cell's prior code, in write order.
///     Replaying the log in reverse through `SetCode` restores the input
///     table bit for bit, and the session stays usable for the next
///     input;
///   * self-containment: a session references nothing but its bound
///     table. It copies the constraint set and whatever it resolved from
///     its algorithm, so it may outlive both (the evaluation scratch that
///     holds one is thread-local and outlives boxes and algorithms);
///   * one thread per session: sessions are not synchronized.
///
/// Every write to the bound table must go through the session while it
/// is open; the caller owns the table and keeps it alive.
class RepairSession {
 public:
  explicit RepairSession(Table* table) : table_(table) {}
  RepairSession(const RepairSession&) = delete;
  RepairSession& operator=(const RepairSession&) = delete;
  virtual ~RepairSession() = default;

  /// Writes `code` into `cell` of the bound table and brings the
  /// session's derived state in step.
  virtual void SetCode(CellRef cell, std::uint32_t code) = 0;

  /// Repairs the bound table in place; see the class comment for the
  /// undo log. `undo` may be null when the caller keeps the output (a
  /// one-shot repair), which lets the session drop derived state it
  /// would otherwise retain. On failure the bound table may be partly
  /// repaired and the session must be discarded.
  [[nodiscard]] virtual Status RepairCodes(std::vector<CodeWrite>* undo) = 0;

 protected:
  Table* table() const { return table_; }

 private:
  Table* const table_;
};

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

  /// Optionally opens a `RepairSession` over `table` (owned by the
  /// caller, who must keep it alive and write it only through the
  /// session) under the constraint set `dcs`. Black boxes return null,
  /// the default, and callers fall back to `Repair`. `BlackBoxRepair`
  /// opens one per evaluating thread on its scratch table, so
  /// consecutive coalitions re-repair a table that moved by a few cells
  /// without rebuilding the backend's indices.
  virtual std::unique_ptr<RepairSession> OpenSession(const dc::DcSet& dcs,
                                                     Table* table) const {
    (void)dcs;
    (void)table;
    return nullptr;
  }
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_ALGORITHM_H_
