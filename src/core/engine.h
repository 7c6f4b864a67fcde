// `trex::Engine`: the single-instance COMPUTE layer of the explanation
// stack — one engine owns one repair instance (Alg, C, T^d).
//
// The stack splits into two layers with distinct jobs and contracts:
//
//   * `Engine` (this file) is the synchronous compute unit. It owns one
//     shared `BlackBoxRepair` — the reference repair runs exactly once
//     per (algorithm, DcSet, Table) — and serves every explanation kind
//     through one request/response surface:
//
//       Engine engine(algorithm, dcs, dirty);
//       ExplainRequest req;
//       req.target = cell;
//       req.kind = ExplainKind::kConstraints;
//       auto result = engine.Explain(req);
//
//   * `serving::ExplainService` (src/serving/service.h) is the ASYNC
//     front-end a deployment talks to. Its request path is a three-stage
//     admit → coalesce → execute scheduler: ADMIT bounds the queue and
//     load-sheds the lowest-priority job (`Status::Rejected`) when it is
//     full; COALESCE gathers queued same-engine jobs at dequeue and runs
//     the group as one engine acquisition, one `EnsureRepair` and one
//     `Explain` per member, resolving each job's ticket; EXECUTE runs
//     under per-job cancellation tokens armed by caller cancels *and*
//     wall-clock deadlines, which the sweep/enumeration loops below poll
//     mid-run.
//     Underneath, a `serving::EngineRouter` keys a bounded LRU pool of
//     engines by (algorithm id, DcSet fingerprint, table fingerprint),
//     so each engine keeps the amortization story below while the
//     service scales across tables. `TRexSession` adapts the service
//     back into the paper's interactive single-table loop.
//
// Amortization: sequential `Explain` calls on the same engine share the
// memo caches — a constraint-subset repair computed for one target
// answers the characteristic function for every other target, so
// constraint explanations of k targets cost one sweep of the 2^|C|
// subsets instead of k sweeps. `ExplainResult::cross_request_hits` (and
// `num_cross_request_hits()` over the engine's lifetime) reports exactly
// how much work was amortized. A memo entry stores only where its
// repair's output differs from T^c, so it answers every target,
// registered before or after it was written, in O(cells the output gets
// wrong) bytes.
// Permutation sweeps shard across a small thread pool with
// deterministic per-shard seeds (see shapley_sampling.h), so results
// are bit-identical for every `EngineOptions::num_threads` and between
// the service path and direct engine calls with the same seeds.
//
// Cancellation is per request: each `ExplainRequest::cancel` is polled
// between black-box evaluations inside the sweep/enumeration loops (so
// one member of a coalesced group can expire — e.g. on its own deadline
// — without disturbing its neighbors). A cancelled request returns
// `Status::Cancelled` promptly and leaves the engine reusable.
//
// Thread-safety contract, per layer (the synchronized layers carry
// Clang thread-safety annotations — see common/thread_annotations.h —
// so a clang build with -Wthread-safety enforces this table at compile
// time):
//   * `Engine` — one caller at a time; it holds no mutex of its own.
//     `Explain` mutates shared state (the target registry, request
//     ids). Parallelism lives *inside* a request via
//     `EngineOptions::num_threads`: the sweep shards fan out over
//     `common::ThreadPool`, whose queue state is GUARDED_BY its
//     internal mutex.
//   * `BlackBoxRepair` — internally synchronized for concurrent
//     evaluations (the sweep shards rely on this). The shared memo in
//     `BlackBoxRepair::CacheState` is GUARDED_BY a `SharedMutex`: shared
//     for memo hits, exclusive for inserts.
//   * `serving::EngineRouter` / `serving::ExplainService` — fully
//     thread-safe; all guarded state is annotated, and the lock-order
//     and stats-deadlock rules are documented in their file comments.
//     The router serializes per-engine access (`EngineEntry::mu`) so
//     the engine's single-caller invariant holds under concurrent
//     traffic.
//
// `TRexSession` (serving/session.h) is the only adapter left over this
// stack: it routes the paper's interactive single-table loop through the
// service.

#ifndef TREX_CORE_ENGINE_H_
#define TREX_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/repair_game.h"
#include "core/shapley_sampling.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "common/cancel.h"
#include "table/table.h"

namespace trex {

/// What kind of explanation a request asks for.
enum class ExplainKind {
  /// Rank the denial constraints by Shapley contribution (paper §2.2).
  kConstraints,
  /// Rank the table cells by Shapley contribution (paper §2.2).
  kCells,
  /// Pairwise constraint Shapley interaction indices (Example 2.3).
  kInteractions,
  /// Inclusion-minimal constraint removal sets (counterfactuals).
  kRemovalSets,
  /// Single-cell contribution estimate (Example 2.5).
  kSingleCell,
};

const char* ExplainKindToString(ExplainKind kind);

/// Anytime estimation: confidence-bounded early stopping for the
/// engine's sampled paths (kCells / kConstraints sweeps, kSingleCell).
/// When enabled, a sampled request stops at the first wave boundary
/// where every player's confidence half-width meets the target, or
/// where the top-k players are CI-separated from the rest — the
/// per-kind `num_samples` becomes an upper bound, not a fixed spend —
/// and reports the sweeps consumed plus the achieved width on the
/// result. Stopping decisions are made on deterministically merged
/// statistics at shard-index-defined wave boundaries (see
/// shap::RunShardedSweeps), so estimates and the stopping point stay
/// bit-identical at every `EngineOptions::num_threads`.
struct AnytimeOptions {
  /// Stop once every player's CI half-width is at or below this value
  /// (NaN or negative is rejected).
  std::optional<double> target_ci_half_width;
  /// When > 0, stop once the k-th ranked player's CI lower bound clears
  /// the (k+1)-th player's upper bound (shap::StopRule::top_k); a
  /// separation reads as `ExplainResult::early_stopped`. Applies to the
  /// kCells and kConstraints sweeps; kSingleCell and the exact paths
  /// ignore it. Combinable with `target_ci_half_width`: either stops.
  std::size_t top_k = 0;
  /// Bound family: normal-theory or empirical Bernstein.
  shap::BoundKind bound = shap::BoundKind::kNormal;
  /// Normal-theory width multiplier (kNormal only); must be > 0.
  double z = 1.96;
  /// Per-player failure probability (kBernstein only); must lie in
  /// (0, 1).
  double delta = 0.05;
  /// No player counts as converged below this many samples.
  std::size_t min_samples = 16;
  /// Skip converged players' repair evaluations in later sweeps.
  bool freeze_converged = true;
  /// Stopping-check granularity in sweeps, rounded up to whole shards
  /// of 32 sweeps: a wave spans `ceil(check_interval / 32)` shards which run
  /// concurrently, so this also sizes the parallelism available to an
  /// anytime run. Part of the configuration — results depend on it,
  /// never on the thread count.
  std::size_t check_interval = 256;
  /// Sweep budget override for sampled paths; 0 = keep the per-kind
  /// `num_samples` budget.
  std::size_t max_sweeps = 0;

  /// Unset target and `top_k == 0` = anytime stopping disabled (fixed
  /// budget).
  bool enabled() const {
    return target_ci_half_width.has_value() || top_k > 0;
  }
};

/// How absent cells are materialized in cell coalitions.
enum class AbsentCellPolicy {
  /// Set to null (the paper's formal definition, §2.2).
  kNull,
  /// Replace with a draw from the cell's column distribution in T^d
  /// (the paper's sampling estimator, Example 2.5).
  kSampleFromColumn,
};

const char* AbsentCellPolicyToString(AbsentCellPolicy policy);

/// One ranked player (a DC or a cell) in an explanation.
struct PlayerScore {
  /// Display label: the constraint name ("C3") or the paper-style cell
  /// name ("t5[League]").
  std::string label;
  double shapley = 0.0;
  /// Standard error (0 for exact computations).
  double std_error = 0.0;
  std::size_t num_samples = 0;
  /// Set for cell explanations.
  std::optional<CellRef> cell;
  /// Set for constraint explanations.
  std::optional<std::size_t> constraint_index;
};

/// A ranking of the players behind the repair of one cell
/// (kConstraints / kCells).
struct Explanation {
  /// Players ranked by Shapley value, descending (ties keep player
  /// order, so output is deterministic).
  std::vector<PlayerScore> ranked;
  /// The explained cell and its repair.
  CellRef target;
  std::string target_label;
  Value old_value;
  Value new_value;
  /// Cost accounting: black-box repair invocations / memo hits.
  std::size_t algorithm_calls = 0;
  std::size_t cache_hits = 0;
  /// "exact" or "sampling(...)": how the values were computed.
  std::string method;

  /// The top-k players (k clamped to size).
  std::vector<PlayerScore> TopK(std::size_t k) const;

  /// Sum of all Shapley values (= v(N) − v(∅) for exact computations —
  /// the efficiency axiom; ≈ for sampled ones).
  double TotalAttribution() const;
};

/// One constraint pair's interaction (see core/interaction.h; positive
/// = the pair acts as a complement, like the paper's C1 & C2).
struct InteractionScore {
  std::string label_a;
  std::string label_b;
  double interaction = 0.0;
};

/// Options for kConstraints / kInteractions / kRemovalSets. Constraint
/// games are exact by subset enumeration up to `max_exact_players` ("the
/// number of DCs is usually small") and sampled past it.
struct ConstraintOptions {
  /// Use exact enumeration up to this many constraints, sampling beyond
  /// (0 = always sample).
  std::size_t max_exact_players = 20;
  /// Attribute with Banzhaf values instead of Shapley (exact path only;
  /// Banzhaf weighs every coalition equally and drops the efficiency
  /// axiom — a common comparison point for attribution semantics).
  bool use_banzhaf = false;
  /// Sampling path only: permutation sweeps (an upper bound under
  /// anytime stopping). The stop rule and cancel token come from the
  /// request, the threads and pool from the engine.
  std::size_t num_samples = 500;
  /// Sampling path only: equal seeds give identical estimates.
  std::uint64_t seed = Rng::kDefaultSeed;
};

/// Computation method for cell explanations.
enum class CellMethod {
  /// Exact when the (pruned) player set is small and the policy is
  /// kNull; sampling otherwise.
  kAuto,
  kExact,
  kSampling,
};

/// Options for kCells / kSingleCell. Cells are ranked with the
/// Strumbelj–Kononenko permutation sampler (Example 2.5), exact for
/// small player sets under kNull.
struct CellOptions {
  CellMethod method = CellMethod::kAuto;
  AbsentCellPolicy policy = AbsentCellPolicy::kSampleFromColumn;
  /// Permutation sweeps for the all-cells ranking; each sweep costs
  /// (#players + 1) black-box evaluations. kSingleCell runs this many
  /// (permutation, draw) iterations of two evaluations each.
  std::size_t num_samples = 300;
  std::uint64_t seed = Rng::kDefaultSeed;
  /// Restrict players to cells that can influence the target under the
  /// algorithm's influence graph (falls back to the conservative DC
  /// graph when the algorithm exposes none). Cells outside the player
  /// set are reported with Shapley 0.
  bool prune = true;
  /// Exact-path player cap (2^n coalition values are materialized; the
  /// subset walk refuses more than `shap::kMaxSubsetWalkPlayers`
  /// whatever this allows).
  std::size_t max_exact_players = 20;
};

/// One explanation query: a target cell, the kind of explanation, and
/// the options for that kind (unused option groups are ignored).
struct ExplainRequest {
  /// The repaired cell to explain.
  CellRef target;
  ExplainKind kind = ExplainKind::kConstraints;
  ConstraintOptions constraints;
  CellOptions cells;
  /// kRemovalSets: largest removal-set size searched.
  std::size_t max_removal_set_size = 3;
  /// kSingleCell: the player cell whose contribution is estimated.
  /// Required for that kind — an unset value is an error, never a
  /// silent default cell.
  std::optional<CellRef> single_cell;
  /// Anytime estimation override for this request; unset = the engine's
  /// `EngineOptions::anytime` default applies.
  std::optional<AnytimeOptions> anytime;
  /// Soft stop (see shap::StopRule::soften): once fired, a sampled path
  /// finishes its current wave and returns the partial
  /// confidence-bounded estimates with `ExplainResult::approximate` set
  /// — instead of discarding work like `cancel`. The serving layer arms
  /// this from expiring deadlines to degrade gracefully.
  CancelToken soften;
  /// Cooperative cancellation: polled between black-box evaluations in
  /// the sweep and subset-enumeration loops, so an in-flight request
  /// stops within one repair call of cancellation and returns
  /// `Status::Cancelled`. Default token = never cancelled.
  CancelToken cancel;
};

/// The engine's answer to one request. Exactly one payload field is
/// populated, per `kind`: `explanation` for kConstraints/kCells,
/// `interactions`, `removal_sets`, or `single_cell`.
struct ExplainResult {
  ExplainKind kind = ExplainKind::kConstraints;
  CellRef target;
  std::optional<Explanation> explanation;
  std::vector<InteractionScore> interactions;
  std::vector<std::vector<std::string>> removal_sets;
  std::optional<PlayerScore> single_cell;
  /// Algorithm invocations charged to this request. An `Explain` call
  /// that first builds the shared box is charged the reference run;
  /// after an explicit `EnsureRepair` it is charged to no request.
  std::size_t algorithm_calls = 0;
  /// Memo hits while serving this request...
  std::size_t cache_hits = 0;
  /// ...of which hits on entries another request paid for.
  std::size_t cross_request_hits = 0;
  /// Permutation sweeps consumed by a sampled path (0 for exact paths).
  std::size_t sweeps = 0;
  /// Largest per-player confidence half-width when a sampled run ended,
  /// under the effective bound family; unset for exact paths.
  std::optional<double> achieved_ci_half_width;
  /// A stopping rule ended the sampled run before its sweep budget.
  bool early_stopped = false;
  /// The request's soften token fired: the estimates are partial but
  /// valid and confidence-bounded (`achieved_ci_half_width` reports how
  /// wide). Never set on exact paths, which either finish or cancel.
  bool approximate = false;
};

/// Options for the engine.
struct EngineOptions {
  /// Worker threads for sharded permutation sweeps. Shapley estimates
  /// are bit-identical for every value (sharding is seed-deterministic);
  /// only wall-clock time changes. Cost counters may report a few extra
  /// algorithm calls under concurrency when two shards miss the same
  /// memo key simultaneously.
  std::size_t num_threads = 1;
  /// Engine-wide anytime estimation default for sampled paths; each
  /// request can override it via `ExplainRequest::anytime`.
  AnytimeOptions anytime;
};

/// Unified multi-target explanation engine (see file comment).
class Engine {
 public:
  /// The algorithm is shared (not copied) and must outlive the engine.
  Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
         dc::DcSet dcs, Table dirty, EngineOptions options = {});

  /// Shares the dirty table with the caller (the router/session path):
  /// only one copy stays resident, handed through to the
  /// `BlackBoxRepair` at `EnsureRepair`. `dirty` must not be null.
  Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
         dc::DcSet dcs, std::shared_ptr<const Table> dirty,
         EngineOptions options = {});

  const Table& dirty() const { return *dirty_; }
  /// The shared dirty-table handle (for callers that want to alias it).
  const std::shared_ptr<const Table>& shared_dirty() const { return dirty_; }
  const dc::DcSet& dcs() const { return dcs_; }
  const repair::RepairAlgorithm& algorithm() const { return *algorithm_; }
  const EngineOptions& options() const { return options_; }

  /// Runs the reference repair if it has not run yet. `Explain` does
  /// this on demand; call it eagerly to surface repair failures early or
  /// to read `reference_clean()`.
  [[nodiscard]] Status EnsureRepair();

  /// True once the reference repair ran.
  bool has_repair() const { return box_.has_value(); }

  /// The reference clean table T^c; requires `has_repair()`.
  const Table& reference_clean() const;

  /// Serves one explanation request.
  [[nodiscard]] Result<ExplainResult> Explain(const ExplainRequest& request);

  /// Lifetime totals across every request served by this engine.
  std::size_t num_algorithm_calls() const;
  std::size_t num_cache_hits() const;
  std::size_t num_cross_request_hits() const;
  /// Estimated resident bytes of the memo caches right now (0 before
  /// the reference repair). See `BlackBoxRepair::approx_memo_bytes`.
  std::size_t approx_memo_bytes() const;

 private:
  /// Cheap request screening (bounds, option consistency) that must run
  /// before the reference repair is paid for.
  [[nodiscard]] Status ValidateRequest(const ExplainRequest& request) const;

  [[nodiscard]] Result<std::size_t> EnsureTarget(CellRef target);

  /// The effective stopping rule for a request: its `anytime` override
  /// (or the engine default) lowered onto a `shap::StopRule`, with the
  /// request's soften token attached.
  shap::StopRule EffectiveStopRule(const ExplainRequest& request) const;
  /// The anytime options in effect for a request.
  const AnytimeOptions& EffectiveAnytime(const ExplainRequest& request) const;
  /// The sweep budget a sampled path runs: `AnytimeOptions::max_sweeps`
  /// when anytime stopping is enabled and it is set, else the per-kind
  /// `num_samples`.
  std::size_t EffectiveBudget(const ExplainRequest& request,
                              std::size_t num_samples) const;

  // The sampled per-kind helpers take the whole request (for anytime
  // options and the soften token) and record sweep telemetry — sweeps,
  // achieved CI width, early-stop/approximate flags — onto `result`.
  [[nodiscard]] Result<Explanation> ExplainConstraints(std::size_t target_index,
                                         const ExplainRequest& request,
                                         ExplainResult* result);
  [[nodiscard]] Result<std::vector<InteractionScore>> ExplainInteractions(
      std::size_t target_index, const ConstraintOptions& options,
      const CancelToken& cancel);
  [[nodiscard]] Result<std::vector<std::vector<std::string>>> ExplainRemovalSets(
      std::size_t target_index, const ConstraintOptions& options,
      std::size_t max_set_size, const CancelToken& cancel);
  [[nodiscard]] Result<Explanation> ExplainCells(std::size_t target_index,
                                   const ExplainRequest& request,
                                   ExplainResult* result);
  [[nodiscard]] Result<PlayerScore> ExplainSingleCell(std::size_t target_index,
                                        const ExplainRequest& request,
                                        ExplainResult* result);

  [[nodiscard]] Result<std::vector<CellRef>> PlayerCells(const CellOptions& options,
                                           CellRef target) const;
  [[nodiscard]] Status RequireRepairedTarget(std::size_t target_index) const;
  [[nodiscard]] Status RequireMaskableConstraints() const;
  /// The engine's persistent worker pool (lazily created; null while the
  /// engine is configured single-threaded) so repeated sampling requests
  /// don't respawn threads.
  ThreadPool* SweepPool();

  std::shared_ptr<const repair::RepairAlgorithm> algorithm_;
  dc::DcSet dcs_;
  /// Shared with the box (and possibly a router/session); never null.
  std::shared_ptr<const Table> dirty_;
  EngineOptions options_;
  std::optional<BlackBoxRepair> box_;
  std::unique_ptr<ThreadPool> pool_;
  std::size_t next_request_id_ = 1;
};

}  // namespace trex

#endif  // TREX_CORE_ENGINE_H_
