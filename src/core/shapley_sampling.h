// Monte-Carlo Shapley estimation (Strumbelj & Kononenko, KAIS 2014 — the
// paper's reference [7]).
//
// The estimator draws random player permutations; the marginal
// contribution of a player against the coalition of players preceding it
// is an unbiased sample of its Shapley value. Two drivers:
//
//  * `EstimateShapleyForPlayer` — the paper's Example 2.5 loop for a
//    single player of interest: per sample, one permutation and two
//    characteristic-function evaluations (with and without the player).
//  * `EstimateShapleyAllPlayers` — one sweep per permutation yields a
//    marginal sample for *every* player with n+1 evaluations, the right
//    tool when ranking all cells. It is also the top-k driver: with
//    `stop.top_k = k` it stops once the k leaders are CI-separated from
//    the rest, which is what the T-REx GUI flow needs when the user
//    reads only the first few rows of the ranking.
//
// Anytime estimation: every estimator can stop as soon as the answer is
// good enough instead of spending a fixed permutation budget. A
// `StopRule` requests either a target confidence-interval half-width per
// player (normal-theory or empirical-Bernstein bounds) or top-k
// CI-separation, and the sharded sweep driver evaluates it only at
// *wave boundaries* — waves are groups of shards defined purely by shard
// index, so the stopping point, the freeze set, and the merged estimates
// are bit-identical at every thread count. Early stopping and sweep
// parallelism coexist: a wave's shards run concurrently on the
// configured pool, and the rule is consulted after the wave's statistics
// have been merged in shard-index order. Converged players can
// optionally be *frozen* — their with/without evaluations are skipped in
// subsequent sweeps — without perturbing any other player's samples.
// A `soften` token (armed e.g. by a serving deadline) flips the rule to
// "finish the current wave and return the partial confidence-bounded
// estimates" instead of discarding work.

#ifndef TREX_CORE_SHAPLEY_SAMPLING_H_
#define TREX_CORE_SHAPLEY_SAMPLING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/game.h"
#include "common/cancel.h"

namespace trex::shap {

class RunningStat;

/// Which concentration bound turns running moments into a confidence
/// half-width.
enum class BoundKind {
  /// Normal-theory (CLT): z · std_error. Tight asymptotically but
  /// overconfident at small counts and for zero-variance players.
  kNormal,
  /// Empirical Bernstein (Audibert et al. / Maurer & Pontil):
  /// sqrt(2·V·ln(3/δ)/n) + 3·R·ln(3/δ)/n for samples in a range of
  /// width R. Sound for the bounded marginals of binary repair games
  /// (marginals live in [-1, 1], R = 2), and its O(1/n) term keeps
  /// zero-variance players honest where the normal bound collapses to 0.
  kBernstein,
};

/// Anytime stopping rule, evaluated only at wave boundaries of the
/// sharded sweep driver (see `RunShardedSweeps`). Inactive by default.
struct StopRule {
  /// Stop once every player's confidence half-width is at or below this
  /// value (and each has at least `min_samples` samples).
  std::optional<double> target_half_width;
  /// When > 0, stop once the k-th ranked player's CI lower bound
  /// exceeds the (k+1)-th player's CI upper bound (top-k separation).
  /// May be combined with `target_half_width`; either condition stops.
  std::size_t top_k = 0;
  /// Bound family used for half-widths (both stopping and freezing).
  BoundKind bound = BoundKind::kNormal;
  /// Normal-theory width multiplier (kNormal only).
  double z = 1.96;
  /// Failure probability per player (kBernstein only).
  double delta = 0.05;
  /// Sample range width for the Bernstein bound; marginals of a 0/1
  /// game live in [-1, 1], so the default is 2.
  double range = 2.0;
  /// No player is considered converged (or separated) below this count.
  std::size_t min_samples = 16;
  /// When a `target_half_width` is set, players whose half-width already
  /// meets it are *frozen*: subsequent sweeps skip their with/without
  /// evaluations (the sweep callback receives the freeze set). Frozen
  /// players' accumulated estimates are left untouched, and the freeze
  /// set only changes at wave boundaries, so it is deterministic.
  bool freeze_converged = true;
  /// Soft stop: once this token fires, the driver finishes the current
  /// wave, merges it, and returns the partial confidence-bounded
  /// estimates with `SweepOutcome::softened` set. Unlike
  /// `ShardedSweepConfig::cancel`, the merged statistics remain valid.
  /// Checked at wave boundaries only (latency ≤ one wave).
  CancelToken soften;

  bool active() const { return target_half_width.has_value() || top_k > 0; }
};

/// Options for the sampling estimators.
struct SamplingOptions {
  /// Number of samples (permutations). For `EstimateShapleyForPlayer`
  /// this is the number of (with, without) evaluation pairs; for
  /// `EstimateShapleyAllPlayers` the number of full sweeps. Always an
  /// upper bound: a stopping rule can end the run earlier.
  std::size_t num_samples = 500;
  /// RNG seed; equal seeds give identical estimates.
  std::uint64_t seed = Rng::kDefaultSeed;
  /// Variance reduction: also evaluate each permutation reversed
  /// (negatively correlated coalition sizes). Doubles the samples drawn
  /// per iteration.
  bool antithetic = false;
  /// Anytime stopping rule (see `StopRule`). Applies to every estimator
  /// that accepts these options.
  StopRule stop;
  /// Granularity of stopping checks, in samples. The single-player
  /// estimators check every `check_interval` samples; the sweep
  /// estimator rounds it up to whole shards — a wave spans
  /// `max(1, ceil(check_interval / shard_size))` shards and the rule is
  /// evaluated at wave boundaries. One unified knob: larger values check
  /// less often but expose more parallelism per wave (a wave's shards
  /// run concurrently).
  std::size_t check_interval = 32;
  /// Worker threads for the sweep estimator; 0 means "unset" (run
  /// single-threaded here, but let an embedding engine substitute its
  /// own thread count), while an explicit 1 forces a serial run even
  /// under a multi-threaded engine. Sweeps are partitioned into fixed
  /// shards of `shard_size` permutations, each drawing from a seed
  /// derived deterministically from (seed, shard index) via `ShardSeed`,
  /// and shard results are merged in index order — so the estimates are
  /// bit-identical for every thread count (the game's characteristic
  /// function must be thread-safe; `BlackBoxRepair` is). This holds with
  /// early stopping too: the stopping point is a wave boundary, defined
  /// by shard index, never by thread scheduling.
  std::size_t num_threads = 0;
  /// Permutation sweeps per shard (the unit of parallel work).
  std::size_t shard_size = 32;
  /// Optional persistent worker pool (non-owning; must outlive the
  /// call); the engine passes its own so repeated requests don't respawn
  /// threads. Null = transient pool per call.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: polled between permutation sweeps (each
  /// sweep is n+1 repair runs). Once cancelled the estimator stops
  /// promptly and returns `Status::Cancelled` — partial estimates are
  /// discarded. For a soft stop that *keeps* partial estimates, arm
  /// `stop.soften` instead. Default token = never cancelled.
  CancelToken cancel;
};

/// One player's Monte-Carlo estimate.
struct Estimate {
  double value = 0.0;
  /// Standard error of the mean (0 until 2+ samples).
  double std_error = 0.0;
  /// Samples actually taken (= num_samples unless early-stopped or
  /// frozen before budget exhaustion).
  std::size_t num_samples = 0;

  /// Normal-theory confidence bounds, e.g. `value ± 1.96·std_error`.
  double ci_low(double z = 1.96) const { return value - z * std_error; }
  double ci_high(double z = 1.96) const { return value + z * std_error; }
};

/// Welford running-moment accumulator (exposed for reuse by the cell
/// estimator in the engine and by tests).
class RunningStat {
 public:
  void Add(double x);
  /// Folds another accumulator's moments into this one (Chan et al.
  /// pairwise combination) — used to merge per-shard statistics in
  /// deterministic shard order.
  void Merge(const RunningStat& other);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 until two samples.
  double variance() const;
  /// Standard error of the mean.
  double std_error() const;
  Estimate ToEstimate() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// The confidence half-width of a running estimate under `rule.bound`.
/// Returns +infinity below two samples (no variance information yet).
double CiHalfWidth(const RunningStat& stat, const StopRule& rule);

/// The per-shard RNG seed for sharded sweep sampling: a splitmix64 mix
/// of the base seed and the shard index. Exposed so other sharded
/// samplers (the engine's cell sweeps) stay bit-compatible across
/// serial and parallel execution.
std::uint64_t ShardSeed(std::uint64_t seed, std::size_t shard);

/// Configuration for `RunShardedSweeps`.
struct ShardedSweepConfig {
  std::size_t num_samples = 0;
  std::size_t shard_size = 32;
  std::size_t num_threads = 1;
  std::uint64_t seed = Rng::kDefaultSeed;
  /// Anytime stopping rule, evaluated at wave boundaries (see below).
  StopRule stop;
  /// Stopping-check granularity in samples, rounded up to whole shards:
  /// under an active stopping rule a wave spans
  /// `max(1, ceil(check_interval / shard_size))` shards. The wave width
  /// is then part of the configuration — never derived from the thread
  /// count — because the stopping point is a wave boundary and must be
  /// reproducible. Without a rule, waves only bound memory and span a
  /// multiple of the pool width.
  std::size_t check_interval = 0;
  /// Optional persistent worker pool to reuse across calls (non-owning;
  /// must outlive the call). When null, a transient pool of
  /// `num_threads` is created per call.
  ThreadPool* pool = nullptr;
  /// Polled before every sweep inside each shard and at wave boundaries;
  /// once cancelled, remaining sweeps are skipped and the driver returns
  /// early. Callers observing `cancel.cancelled()` after the call must
  /// treat the merged statistics as garbage. Contrast `stop.soften`,
  /// which finishes the current wave and keeps the merged statistics.
  CancelToken cancel;
};

/// What a sharded sweep run produced, beyond the statistics themselves.
struct SweepOutcome {
  /// Per-player merged statistics (shard-index merge order).
  std::vector<RunningStat> stats;
  /// Permutation sweeps consumed (≤ config.num_samples).
  std::size_t sweeps = 0;
  /// Wave boundaries crossed.
  std::size_t waves = 0;
  /// A stopping rule ended the run before the sample budget.
  bool stopped_early = false;
  /// The soften token fired; `stats` hold the partial (but valid and
  /// confidence-bounded) estimates as of the completed wave.
  bool softened = false;
  /// Top-k separation held at the stopping wave (`stop.top_k > 0` only).
  bool separated = false;
  /// Largest per-player confidence half-width at the end of the run
  /// under `stop.bound` (+infinity until every player has 2+ samples;
  /// 0 for an empty player set).
  double achieved_half_width = 0.0;
  /// Players frozen when the run ended.
  std::size_t frozen_players = 0;
};

/// The shared wave-synchronous sweep driver behind
/// `EstimateShapleyAllPlayers` and the engine's cell sampler (top-k
/// ranking included, via `stop.top_k`): partitions `num_samples` sweeps into fixed shards, runs
/// each shard with an RNG seeded by `ShardSeed(seed, shard)`, and merges
/// per-shard statistics in shard-index order — so the merged result
/// depends only on (config, sweep), never on thread count. Shards
/// execute in waves (see `check_interval`; a wave's shards run
/// concurrently on the pool);
/// after each wave is merged the driver consults `config.stop`, updates
/// the freeze set, and honours `stop.soften` — all decisions are made on
/// deterministically merged statistics at shard-index-defined
/// boundaries, so early stopping keeps the bit-identical-at-any-
/// thread-count guarantee. `sweep` executes ONE sweep: it draws from the
/// shard's RNG and folds one marginal sample per *unfrozen* player into
/// the shard's statistics vector (the freeze set is all-false unless
/// `stop.freeze_converged` and a target width are set). `sweep` must be
/// thread-safe when more than one shard runs per wave.
SweepOutcome RunShardedSweeps(
    const ShardedSweepConfig& config, std::size_t num_players,
    const std::function<void(Rng* rng, std::vector<RunningStat>* stats,
                             const std::vector<bool>& frozen)>& sweep);

/// Estimates the Shapley value of `player` (see file comment).
[[nodiscard]] Result<Estimate> EstimateShapleyForPlayer(const Game& game,
                                          std::size_t player,
                                          const SamplingOptions& options = {});

/// Estimates all players' Shapley values with permutation sweeps.
/// `outcome` (optional) receives the full sweep outcome — sweeps
/// consumed, achieved confidence width, freeze count, soften flag.
[[nodiscard]] Result<std::vector<Estimate>> EstimateShapleyAllPlayers(
    const Game& game, const SamplingOptions& options = {},
    SweepOutcome* outcome = nullptr);

/// Stratified single-player estimator (Maleki et al. style): the Shapley
/// value is the average over coalition sizes s of E[marginal | |S| = s];
/// sampling each size stratum separately removes the variance *between*
/// strata that plain permutation sampling pays for. `options.num_samples`
/// is the total budget. A pilot wave spends half the budget evenly
/// across the n strata, then the remainder follows Neyman allocation
/// (proportional to the observed per-stratum standard deviation, which
/// minimises the variance of the stratified mean for a fixed budget;
/// deterministic largest-remainder rounding). Strata are sampled in
/// parallel over `options.num_threads` / `options.pool`, each stratum on
/// its own `ShardSeed`-derived RNG stream, so results are bit-identical
/// at every thread count. Useful when marginals differ sharply by
/// coalition size (binary repair games often do).
[[nodiscard]] Result<Estimate> EstimateShapleyStratified(const Game& game,
                                           std::size_t player,
                                           const SamplingOptions& options = {});

}  // namespace trex::shap

#endif  // TREX_CORE_SHAPLEY_SAMPLING_H_
