// Sharded materialization of a game's characteristic function over all
// 2^n coalitions — the shared kernel of the exact Shapley, Banzhaf, and
// interaction-index solvers.
//
// Each of the 2^n evaluations is an independent black-box repair run
// (unless memoized), so the walk parallelizes embarrassingly: masks are
// partitioned into fixed shards, each shard evaluates its contiguous
// mask range into a disjoint slice of the output vector, and no shard's
// result depends on another's — the materialized values are bit-identical
// for every thread count by construction. `BlackBoxRepair`-backed games
// are internally synchronized, which is what makes concurrent
// `Game::Value` calls safe (a custom game used with `num_threads > 1`
// must be thread-safe too).
//
// Cancellation is polled per mask inside every shard (the same
// granularity the serial loops had), so a deadline or caller cancel
// expires the walk within one repair call per active thread.

#ifndef TREX_CORE_SUBSET_WALK_H_
#define TREX_CORE_SUBSET_WALK_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/game.h"
#include "common/cancel.h"

namespace trex::shap {

/// Fixed ceiling on the walk's player count, whatever a caller's
/// `max_players`: 2^30 coalitions are already 8 GiB of values and 2^30
/// black-box repairs.
inline constexpr std::size_t kMaxSubsetWalkPlayers = 30;

/// Options for the sharded subset walk.
struct SubsetWalkOptions {
  /// Hard cap on player count: 2^n coalition values are materialized.
  std::size_t max_players = 22;
  /// Worker threads; 1 = serial (no pool touched). Values are
  /// bit-identical for every count.
  std::size_t num_threads = 1;
  /// Masks per parallel task. Fixed (not adaptive) so the partition —
  /// and with it any cost accounting — is independent of thread count.
  std::size_t shard_size = 64;
  /// Optional persistent worker pool (non-owning; must outlive the
  /// call). Null with `num_threads > 1` = transient pool per call.
  ThreadPool* pool = nullptr;
  /// Polled once per coalition in every shard; cancelled walks return
  /// `Status::Cancelled`.
  CancelToken cancel;
  /// Optional advice appended to the over-cap error message — only for
  /// callers that actually have a cheaper fallback (exact Shapley
  /// points at its sampling estimator; interactions and Banzhaf have
  /// none). Null = no advice.
  const char* over_cap_hint = nullptr;
};

/// Materializes v over all 2^n coalitions (index = bitmask, bit i =
/// player i present). Fails with InvalidArgument past
/// `options.max_players` or `kMaxSubsetWalkPlayers`,
/// `Status::Cancelled` on cancellation.
/// `context` names the caller in error messages ("exact Shapley", ...).
[[nodiscard]] Result<std::vector<double>> MaterializeCoalitionValues(
    const Game& game, const SubsetWalkOptions& options, const char* context);

}  // namespace trex::shap

#endif  // TREX_CORE_SUBSET_WALK_H_
