// `TRexSession`: the end-to-end T-REx workflow as a library object.
//
// The paper's system (§3, Figures 3–4) walks users through three screens:
// input (table + DCs into the repairer), repair (highlighted diff), and
// explanation (DCs / cells ranked by Shapley value), then lets them edit
// the DCs or the data and iterate. This class is that loop without the
// browser:
//
//   TRexSession session(algorithm, dcs, dirty_table);
//   session.Repair();                         // screen 2
//   auto ex = session.ExplainConstraints(cell);  // screen 3
//   session.RemoveConstraint("C3");           // act on the explanation
//   session.Repair();                         // iterate
//
// The session is an adapter over `serving::ExplainService`: `Repair()`
// snapshots the dirty table and routes it to an engine in the service's
// pool, whose reference repair backs both the diff screen and every
// explanation. The synchronous explain methods are submit-and-wait over
// the service (so they share its queue, engines, and accounting with
// any concurrent async traffic), and `SubmitExplain` exposes the async
// path directly: submit with a priority, keep interacting, cancel or
// await the ticket — the paper's GUI flow. Successive explanation calls
// share the routed engine's memo caches; explaining a second cell of
// the same repair reuses the evaluations the first one paid for. Edits
// change the table or DcSet fingerprint, so the next `Repair()` routes
// to a fresh engine; explanation calls then require that `Repair()`.
//
// The session object itself serves one caller at a time (its mutators
// are unsynchronized); the underlying service is thread-safe, so
// tickets obtained from `SubmitExplain` may be awaited or cancelled
// from any thread.

#ifndef TREX_SERVING_SESSION_H_
#define TREX_SERVING_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "serving/service.h"
#include "table/diff.h"
#include "table/table.h"

namespace trex {

/// Interactive repair-and-explain session (see file comment).
class TRexSession {
 public:
  /// The algorithm is shared (not copied); it must outlive the session.
  /// `engine_options` configures the underlying explanation engine
  /// (e.g. sampling worker threads).
  TRexSession(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
              dc::DcSet dcs, Table dirty, EngineOptions engine_options = {});

  /// Like above, but with full control over the backing service's
  /// scheduler — queue capacity / load-shedding (`max_queued_jobs`),
  /// coalescing width (`max_coalesced_requests`), worker count, and the
  /// router pool. `engine_options` overrides
  /// `service_options.router.engine_options` (one source of truth for
  /// the engine configuration).
  TRexSession(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
              dc::DcSet dcs, Table dirty, EngineOptions engine_options,
              serving::ServiceOptions service_options);

  const Table& dirty() const { return dirty_; }
  const dc::DcSet& dcs() const { return dcs_; }
  const repair::RepairAlgorithm& algorithm() const { return *algorithm_; }

  /// Runs the repair algorithm; afterwards `clean()` and
  /// `repaired_cells()` are available.
  [[nodiscard]] Status Repair();

  /// True once `Repair()` has run (and no edit invalidated it).
  bool has_repair() const { return entry_ != nullptr; }

  /// The repaired table; requires `has_repair()`.
  const Table& clean() const;

  /// The diff dirty -> clean; requires `has_repair()`.
  const std::vector<RepairedCell>& repaired_cells() const;

  /// The engine serving this session's explanations; requires
  /// `has_repair()`. Exposed for cost accounting and advanced direct
  /// calls; do not mix direct engine calls with in-flight async tickets.
  Engine& engine();

  /// The service behind this session. Exposed for stats and for sharing
  /// the pool with other sessions' tables.
  serving::ExplainService& service();

  /// Scheduler accounting (admissions, sheds, coalesced batches,
  /// expiries, queue depth/high-water, router hits); zeroes before the
  /// first `Repair()` creates the service.
  serving::ServiceStats service_stats() const;

  /// Resolves "tk[Attr]"-style coordinates, e.g. `CellAt(4, "Country")`
  /// (row is 0-based).
  [[nodiscard]] Result<CellRef> CellAt(std::size_t row, const std::string& attribute) const;

  /// Ranks the DCs by contribution to the repair of `target`.
  [[nodiscard]] Result<Explanation> ExplainConstraints(
      CellRef target, const ConstraintOptions& options = {}) const;

  /// Pairwise constraint interactions for the repair of `target`
  /// (complements / substitutes; see core/interaction.h).
  [[nodiscard]] Result<std::vector<InteractionScore>> ExplainConstraintInteractions(
      CellRef target, const ConstraintOptions& options = {}) const;

  /// Ranks the cells of T^d by contribution to the repair of `target`.
  [[nodiscard]] Result<Explanation> ExplainCells(
      CellRef target, const CellOptions& options = {}) const;

  /// Estimates a single cell's contribution (Example 2.5).
  [[nodiscard]] Result<PlayerScore> ExplainSingleCell(
      CellRef target, CellRef player_cell,
      const CellOptions& options = {}) const;

  /// Async submission against the session's repair: returns a ticket
  /// immediately (see serving::ExplainService). Without a repair, the
  /// ticket comes back already resolved with the error. The ticket
  /// survives session edits — it pins the table snapshot it was
  /// submitted against (the engine itself is re-acquired from the
  /// router at execution time, so a long-queued ticket may pay a fresh
  /// reference repair if its engine was evicted meanwhile).
  serving::Ticket SubmitExplain(ExplainRequest request,
                                serving::RequestOptions options = {});

  // ---- Iteration: edits invalidate the cached repair. ----

  /// Overwrites a cell of the dirty table; fails for a cell outside it or
  /// a value its column may not hold (`Table::CheckValue`).
  [[nodiscard]] Status SetDirtyCell(CellRef cell, Value value);

  /// Removes the constraint with the given name.
  [[nodiscard]] Status RemoveConstraint(const std::string& name);

  /// Adds a constraint (name must be unused).
  [[nodiscard]] Status AddConstraint(dc::DenialConstraint constraint);

  /// Replaces the same-named constraint.
  [[nodiscard]] Status ReplaceConstraint(dc::DenialConstraint constraint);

 private:
  [[nodiscard]] Status RequireRepair() const;
  void InvalidateRepair();

  std::shared_ptr<const repair::RepairAlgorithm> algorithm_;
  dc::DcSet dcs_;
  Table dirty_;
  EngineOptions engine_options_;
  /// Scheduler configuration for the backing service; set by the
  /// five-argument constructor, defaulted (single worker, small engine
  /// pool) otherwise.
  std::optional<serving::ServiceOptions> service_options_;
  /// Created on the first `Repair()`.
  std::unique_ptr<serving::ExplainService> service_;
  /// Immutable snapshot of `dirty_` shared with the routed engine.
  std::shared_ptr<const Table> table_;
  /// The engine serving the current repair; null until `Repair()`.
  std::shared_ptr<serving::EngineEntry> entry_;
  std::vector<RepairedCell> repaired_cells_;
};

}  // namespace trex

#endif  // TREX_SERVING_SESSION_H_
