// The black-box repair games: T-REx's bridge between a `RepairAlgorithm`
// and the generic Shapley solvers.
//
// `BlackBoxRepair` wraps one *repair instance* — (Alg, C, T^d) plus any
// number of registered target cells — and exposes the paper's binary
// characteristic function per target
//
//     Alg|t[A](C', T') = 1  iff  Alg(C', T') writes the *reference* clean
//                              value T^c[t[A]] into the target cell,
//
// where T^c = Alg(C, T^d) is computed exactly once. Calls are counted,
// since each evaluation is a full repair run — the unit of cost in the
// paper's §2.3 and in bench_ablation.
//
// ## Memoization layer contract
//
// Two memo caches answer repeat evaluations: constraint subsets are keyed
// by bitmask, perturbed tables by their canonical write set against T^d
// (below). Every entry in both memos has one format: the cells where the
// repair's output fails `CellRepairedTo` (table/diff.h) against T^c, as
// sorted linear indices. A target's outcome is "its index is not in the
// list", so one cached repair run answers the characteristic function for
// *every* target — including one registered after the entry was written.
// This is what lets one `Engine` share one box across its requests for
// different targets, and what keeps an entry O(cells the output gets
// wrong) instead of O(table) (Bertossi & Schwind: a repair is the set of
// cells it changes).
//
// ### Canonical constraint-subset keys
//
// Mask lookups are keyed by `mask | dummy(t)`, where `dummy(t)` (see
// `dummy_constraints`) holds the constraints that cannot reach target
// t's column under the algorithm's `InfluenceGraph` (contract in
// repair/algorithm.h). For such a constraint c, v_t(S) = v_t(S ∪ {c}),
// so every coalition's value — and every exact, sampled, interaction
// and removal-set result — is unchanged; only the number of distinct
// repair runs drops. An entry is keyed by the mask that actually ran,
// so it stays exact and answers any target whose canonical mask matches
// it. Black-box algorithms (no graph) have empty dummy masks.
//
// The grand coalition is seeded at construction: its entry is the
// reference repair T^c itself (empty diff), so no subset sweep re-runs
// it. Hits on it count as cache hits but never as cross-request hits.
//
// A table-memo entry is keyed by its input's canonical write set against
// T^d: the writes whose value is not `ExactlyEqual` to the T^d cell,
// sorted by linear index. Two inputs are the same table iff their
// canonical write sets are equal, so the write set is the input's
// identity just as the diff is the output's. Entries sit in buckets
// keyed by a 64-bit hash mixing each canonical write's linear index with
// its `Value::Hash`. That hash follows `Value::operator==`, which equates
// 7 with 7.0, +0.0 with -0.0 and a NaN with any number, so a bucket may
// hold inputs that repair differently: a hit needs the write sets to be
// equal index by index and value by value under `ExactlyEqual` — exact
// content equality of the two inputs, checked in O(#writes) with no
// stored table. The bucket hash alone is never trusted.
//
// ## Delta evaluation
//
// `EvalPerturbation(writes, target)` is the one way to evaluate a
// perturbed table, described as (dirty table, write set) and never
// materialized on the hit path: a lookup canonicalizes the writes (a sort
// only when they are not already in linear-index order, as the cell game's
// and the engine's sweeps keep them), hashes them and compares them
// against the bucket's entries, all in O(#writes) plus the sort. Only a
// memo *miss* materializes the table, into a per-thread scratch reused
// across evaluations (reset from the dirty table by undoing the previous
// writes, then applying the new ones) instead of a fresh copy per
// coalition. `CellGame::Value` and the engine's permutation-sweep loops
// sit on this path; warm-cache evaluations make zero full-table copies
// (`num_eval_table_copies()` counts the scratch (re)initializations).
//
// Repair sessions: when the algorithm opens a `repair::RepairSession`
// on the scratch table (`RepairAlgorithm::OpenSession`; rule_repair
// does, black boxes return null), every scratch write goes through it,
// so the backend's probe indices and statistics follow the scratch from
// one coalition to the next instead of being rebuilt per call. A miss
// then repairs the scratch in place with an undo log, diffs only the
// candidate cells — the input writes, the repair's own writes (the undo
// log) and `static_diff_`, the cells where T^d itself fails
// `CellRepairedTo` against T^c; every other cell still holds its T^d
// value — and replays the log in reverse. The diff is the same sorted
// vector `DiffAgainstClean` gives. A failed session repair drops the
// scratch (the next miss re-copies it) and writes no memo entry. Black
// boxes, wrappers that do not forward the hook, and the constraint-
// subset path keep `Repair` plus `DiffAgainstClean`.
//
// `approx_memo_bytes()` estimates the resident payload of both memos
// (entries × payload estimate) so the memo footprint is observable; the
// engine surfaces it through `Engine::approx_memo_bytes` and the benches'
// JSON lines.
//
// Thread safety: `EvalConstraintSubset` / `EvalPerturbation` may be
// called concurrently (the caches are mutex-guarded; concurrent misses
// on the same key may duplicate a repair run but never corrupt
// results). `AddTarget` and `BeginRequest` must not race with
// evaluations.
//
// The memo's reader/writer discipline is machine-checked under Clang's
// -Wthread-safety (common/thread_annotations.h): both memo maps are
// `GUARDED_BY(CacheState::mu)` — hit scans hold it shared, inserts hold
// it exclusive. Entries are immutable once inserted.
//
// `ConstraintGame` (players = DCs, table fixed) and `CellGame` (players =
// cells nulled in/out, DCs fixed) adapt one target's characteristic
// function to `shap::Game`.

#ifndef TREX_CORE_REPAIR_GAME_H_
#define TREX_CORE_REPAIR_GAME_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/game.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "table/table.h"

namespace trex {

/// Memoized multi-target evaluator of the binary repair outcome (see
/// file comment).
class BlackBoxRepair {
 public:
  /// `EvalConstraintSubset` encodes constraint subsets in a
  /// `std::uint64_t`, so constraint games support at most 64 players.
  static constexpr std::size_t kMaxMaskConstraints = 64;

  /// Runs the reference repair `Alg(dcs, dirty)` once and registers every
  /// cell of `targets` (deduplicated, order preserved) against it.
  /// `targets` may be empty; add cells later with `AddTarget`.
  [[nodiscard]] static Result<BlackBoxRepair> MakeMultiTarget(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
      const std::vector<CellRef>& targets);

  /// Like the `Table` overload but *shares* the dirty table with the
  /// caller instead of holding its own copy — the engine hands its table
  /// over at `EnsureRepair` so only one dirty copy stays resident.
  [[nodiscard]] static Result<BlackBoxRepair> MakeMultiTarget(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs,
      std::shared_ptr<const Table> dirty, const std::vector<CellRef>& targets);

  /// Single-target convenience (the seed API): equivalent to
  /// `MakeMultiTarget(..., {target})`.
  [[nodiscard]] static Result<BlackBoxRepair> Make(
      const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
      CellRef target);

  /// Registers another target cell against the cached reference repair —
  /// no additional algorithm call — and returns its index. Returns the
  /// existing index when the cell is already registered. Resident memo
  /// entries answer the new target too (see file comment). Must not
  /// race with concurrent evaluations.
  [[nodiscard]] Result<std::size_t> AddTarget(CellRef target);

  /// Index of a registered target cell, if any. O(1).
  std::optional<std::size_t> FindTarget(CellRef target) const;

  const Table& dirty() const { return *dirty_; }
  const Table& reference_clean() const { return clean_; }
  const dc::DcSet& dcs() const { return dcs_; }
  const repair::RepairAlgorithm& algorithm() const { return *algorithm_; }

  std::size_t num_targets() const { return targets_.size(); }
  CellRef target(std::size_t index = 0) const;

  /// True iff the reference repair changed the given target cell.
  bool target_was_repaired(std::size_t index = 0) const;

  /// The constraints that are dummy players for target `index` (bit i =
  /// constraint i): no column constraint i's single-constraint
  /// `InfluenceGraph` writes can reach the target's column in the full
  /// graph. 0 when the algorithm exposes no influence graph or |C| > 64.
  /// Mask lookups for this target are keyed by `mask | dummy` (see file
  /// comment).
  std::uint64_t dummy_constraints(std::size_t index = 0) const;

  /// Alg|t[A] for target `target_index` with the constraint subset
  /// selected by `mask` (bit i keeps constraint i) and the unperturbed
  /// dirty table. Requires at most `kMaxMaskConstraints` constraints
  /// (fatal otherwise — callers returning `Status` validate first).
  /// Looked up, and run on a miss, as `mask | dummy_constraints(target)`
  /// — the same outcome under the `InfluenceGraph` contract.
  bool EvalConstraintSubset(std::uint64_t mask,
                            std::size_t target_index = 0) const;

  /// Alg|t[A] for target `target_index` with the full constraint set and
  /// the perturbed table described by (dirty table, `writes`) — without
  /// materializing it on the memo hit path (see file comment). `writes`
  /// must address pairwise-distinct, in-bounds cells, in any order
  /// (linear-index order skips a sort); outcomes are identical to a
  /// fresh repair of the materialized table.
  bool EvalPerturbation(std::span<const CellWrite> writes,
                        std::size_t target_index = 0) const;

  /// Total underlying algorithm invocations (cache misses), including the
  /// reference run.
  std::size_t num_algorithm_calls() const;
  /// Evaluations answered from the memo tables.
  std::size_t num_cache_hits() const;
  /// Memo hits on entries written under a different request context —
  /// the work one engine amortizes across requests (see
  /// `BeginRequest`).
  std::size_t num_cross_request_hits() const;

  /// Full dirty-table copies made by the evaluation paths (per-thread
  /// scratch (re)initializations on memo misses). Warm-cache
  /// evaluations make none — the copy-freedom the delta path is built
  /// for, asserted by tests.
  std::size_t num_eval_table_copies() const;

  /// Estimated resident bytes of both memos (entries × payload
  /// estimate: write sets, output diffs, entry overhead); surfaced
  /// through `Engine::approx_memo_bytes` and the benches' JSON lines.
  std::size_t approx_memo_bytes() const;

  /// Tags subsequent cache writes with `request_id`; hits on entries
  /// written under another id count as cross-request hits. The engine
  /// calls this once per request. Also resets the evaluation
  /// failure channel below (`eval_error` → OK, a fresh abort source), so
  /// a retried request starts clean. Must not race with evaluations.
  void BeginRequest(std::size_t request_id) const;

  /// ## Evaluation failure channel
  ///
  /// The `shap::Game` interface the solvers consume is `double
  /// Value(coalition)` — there is no error path through a sweep. When a
  /// memo-miss repair call fails, the box instead (1) records the first
  /// failure `Status` (sticky until the next `BeginRequest`), (2) fires
  /// the abort source below so every sweep observing the token stops at
  /// its next poll, and (3) returns a dummy outcome WITHOUT writing any
  /// `CacheEntry` — a failed evaluation never poisons the memo, so the
  /// retry re-runs the identical schedule and produces bit-identical
  /// results. The engine merges `eval_abort_token()` into its cancel
  /// tokens and converts abort-driven cancellation back into
  /// `eval_error()` for the caller.
  ///
  /// Token fired when an evaluation's underlying repair call fails.
  CancelToken eval_abort_token() const;

  /// First repair failure recorded since the last `BeginRequest`; OK
  /// when every evaluation's repair call succeeded.
  [[nodiscard]] Status eval_error() const;

  /// Disables memoization (ablation experiments).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  /// Table-memo entries currently resident.
  std::size_t num_table_memo_entries() const;

 private:
  BlackBoxRepair() = default;

  struct TargetInfo {
    CellRef cell;
    std::uint32_t index = 0;  // linear cell index
    bool was_repaired = false;
    /// Constraints that cannot reach the target's column (see
    /// `dummy_constraints`).
    std::uint64_t dummy_constraints = 0;
  };

  /// `CacheEntry::request_id` of the seeded grand-coalition entry: hits
  /// on it count as hits, never as cross-request hits.
  static constexpr std::size_t kReferenceRequest =
      std::numeric_limits<std::size_t>::max();

  /// One cell of a table-memo input's write set against T^d.
  struct MemoWrite {
    std::uint32_t index = 0;  // linear cell index
    Value value;
  };

  /// One memoized repair run (see file comment). `diff` holds the sorted
  /// linear indices of the cells where the output fails
  /// `CellRepairedTo` against T^c. Table-memo entries also identify
  /// their input by its canonical write set `writes`; mask-memo entries
  /// leave it empty (the mask is the key).
  struct CacheEntry {
    std::vector<MemoWrite> writes;
    std::vector<std::uint32_t> diff;
    std::size_t request_id = 0;
  };

  /// Mutable memo state, boxed so `BlackBoxRepair` stays movable despite
  /// the mutex. Lookups (the steady-state path under a warm cache) take
  /// the lock shared so sampling shards hit concurrently; only inserts
  /// take it exclusive. Counters are atomics so hits need no exclusive
  /// access.
  struct CacheState {
    CacheState();

    SharedMutex mu;
    std::unordered_map<std::uint64_t, CacheEntry> mask_cache GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, std::vector<CacheEntry>> table_cache
        GUARDED_BY(mu);
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> cross_request_hits{0};
    std::atomic<std::size_t> current_request{0};
    /// Table-memo entry count.
    std::size_t table_entries GUARDED_BY(mu) = 0;
    /// Estimated resident payload of both memos (maintained under `mu`
    /// on insert; atomic so reads need no lock).
    std::atomic<std::size_t> approx_bytes{0};
    /// Full dirty-table copies made by the evaluation scratch.
    std::atomic<std::size_t> eval_table_copies{0};
    /// Distinguishes this box's per-thread evaluation scratch from
    /// other boxes' (globally unique, assigned at construction).
    const std::uint64_t scratch_id;
    /// Evaluation failure channel (see `eval_error()`): the first
    /// failure since `BeginRequest`, and the source its recording
    /// fires. Leaf lock: never held while calling the algorithm or
    /// while `mu` is held.
    mutable Mutex error_mu;
    Status eval_error GUARDED_BY(error_mu);
    CancelSource eval_abort GUARDED_BY(error_mu);
  };

  /// Records the first evaluation failure and fires the abort source
  /// (see `eval_error()`).
  void RecordEvalError(const Status& status) const;

  /// Bumps the hit counters for a hit on `entry`.
  void CountHit(const CacheEntry& entry) const;

  /// Outcome of target `target_index` under a repair whose output
  /// differs from T^c exactly at `diff`.
  bool Outcome(const std::vector<std::uint32_t>& diff,
               std::size_t target_index) const;

  /// The sorted linear indices of the cells where `repaired` fails
  /// `CellRepairedTo` against T^c; an error when the repair changed the
  /// table's shape.
  [[nodiscard]] Result<std::vector<std::uint32_t>> DiffAgainstClean(
      const Table& repaired) const;

  /// Estimated resident payload of one memo entry.
  static std::size_t EntryPayloadBytes(const CacheEntry& entry);

  /// Brings the per-thread scratch table to dirty+writes: (re)initialized
  /// from the dirty table, with a fresh session from the algorithm,
  /// only when this thread last evaluated a different box (counted in
  /// `eval_table_copies`), otherwise reset by undoing the previous
  /// writes.
  void MaterializeScratch(std::span<const CellWrite> writes) const;

  /// Repairs the materialized scratch and returns its diff against T^c
  /// (see "Delta evaluation" in the file comment). `writes` is the input
  /// `MaterializeScratch` applied.
  [[nodiscard]] Result<std::vector<std::uint32_t>> RepairScratch(
      std::span<const CellWrite> writes) const;

  const repair::RepairAlgorithm* algorithm_ = nullptr;
  dc::DcSet dcs_;
  /// Shared with the owning engine/session (never null once constructed).
  std::shared_ptr<const Table> dirty_;
  Table clean_;
  /// Sorted linear indices of the cells where T^d fails `CellRepairedTo`
  /// against T^c: the session path's diff of every cell neither the
  /// input nor the repair wrote.
  std::vector<std::uint32_t> static_diff_;
  std::vector<TargetInfo> targets_;
  /// Per column, the dummy-constraint mask of its targets; empty when
  /// the algorithm exposes no influence graph or |C| > 64.
  std::vector<std::uint64_t> column_dummy_masks_;
  std::unordered_map<CellRef, std::size_t, CellRefHash> target_index_;
  bool cache_enabled_ = true;
  std::unique_ptr<CacheState> state_;
};

/// Cooperative game whose players are the denial constraints (paper
/// §2.2, first adaptation). The table stays fixed at T^d; outcomes are
/// read for one registered target of the shared box.
class ConstraintGame : public shap::Game {
 public:
  explicit ConstraintGame(const BlackBoxRepair* box,
                          std::size_t target_index = 0)
      : box_(box), target_index_(target_index) {}

  std::size_t num_players() const override { return box_->dcs().size(); }
  double Value(const shap::Coalition& coalition) const override;

 private:
  const BlackBoxRepair* box_;
  std::size_t target_index_;
};

/// Cooperative game whose players are table cells (paper §2.2, second
/// adaptation): cells absent from a coalition are nulled out, the
/// constraint set stays fixed. Coalitions evaluate through
/// `EvalPerturbation` — the absent cells become a write set, no table
/// is materialized on the memo hit path.
///
/// `players` may be a subset of all cells (relevant-cell pruning); cells
/// outside the player list keep their original values — sound when the
/// excluded cells are dummy players under the algorithm's influence
/// graph. Players in linear-index order spare each evaluation a sort.
class CellGame : public shap::Game {
 public:
  CellGame(const BlackBoxRepair* box, std::vector<CellRef> players,
           std::size_t target_index = 0)
      : box_(box),
        players_(std::move(players)),
        target_index_(target_index) {}

  std::size_t num_players() const override { return players_.size(); }
  double Value(const shap::Coalition& coalition) const override;

  const std::vector<CellRef>& players() const { return players_; }

 private:
  const BlackBoxRepair* box_;
  std::vector<CellRef> players_;
  std::size_t target_index_;
};

}  // namespace trex

#endif  // TREX_CORE_REPAIR_GAME_H_
