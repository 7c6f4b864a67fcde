#include "core/shapley_sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace trex::shap {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
}

std::uint64_t ShardSeed(std::uint64_t seed, std::size_t shard) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1);
  return SplitMix64(&state);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::std_error() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(variance() / static_cast<double>(count_));
}

Estimate RunningStat::ToEstimate() const {
  Estimate e;
  e.value = mean_;
  e.std_error = std_error();
  e.num_samples = count_;
  return e;
}

double CiHalfWidth(const RunningStat& stat, const StopRule& rule) {
  if (stat.count() < 2) return std::numeric_limits<double>::infinity();
  if (rule.bound == BoundKind::kNormal) return rule.z * stat.std_error();
  // Empirical Bernstein (Maurer & Pontil 2009): the variance term matches
  // the CLT width asymptotically; the 3·R·ln(3/δ)/n term keeps the bound
  // sound at small counts and for zero-variance players.
  const double n = static_cast<double>(stat.count());
  const double log_term = std::log(3.0 / rule.delta);
  return std::sqrt(2.0 * stat.variance() * log_term / n) +
         3.0 * rule.range * log_term / n;
}

namespace {

/// One marginal-contribution sample of `player` for a given permutation:
/// v(before ∪ {player}) − v(before), where `before` is the set of players
/// preceding `player` in `perm`.
double MarginalForPlayer(const Game& game,
                         const std::vector<std::size_t>& perm,
                         std::size_t player) {
  const std::size_t n = game.num_players();
  Coalition coalition(n, false);
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (perm[pos] == player) break;
    coalition[perm[pos]] = true;
  }
  const double without = game.Value(coalition);
  coalition[player] = true;
  const double with = game.Value(coalition);
  return with - without;
}

/// A player's CI meets the rule's target width (never true below the
/// rule's minimum sample count).
bool PlayerConverged(const RunningStat& stat, const StopRule& stop) {
  return stat.count() >= std::max<std::size_t>(stop.min_samples, 2) &&
         CiHalfWidth(stat, stop) <= *stop.target_half_width;
}

/// Players sorted by estimated value, descending (stable, so ties keep
/// index order — deterministic).
std::vector<std::size_t> RankByMean(const std::vector<RunningStat>& stats) {
  std::vector<std::size_t> order(stats.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&stats](std::size_t a, std::size_t b) {
                     return stats[a].mean() > stats[b].mean();
                   });
  return order;
}

/// ceil(a / b) for b > 0, without the `a + b - 1` that wraps near
/// SIZE_MAX.
std::size_t CeilDiv(std::size_t a, std::size_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

}  // namespace

Result<Estimate> EstimateShapleyForPlayer(const Game& game,
                                          std::size_t player,
                                          const SamplingOptions& options) {
  const std::size_t n = game.num_players();
  if (player >= n) {
    return Status::OutOfRange("player " + std::to_string(player) +
                              " out of range for " + std::to_string(n) +
                              "-player game");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  const StopRule& stop = options.stop;
  const std::size_t check_interval =
      std::max<std::size_t>(1, options.check_interval);
  Rng rng(options.seed);
  RunningStat stat;
  for (std::size_t i = 0; i < options.num_samples; ++i) {
    if (options.cancel.cancelled()) {
      return Status::Cancelled("Shapley sampling cancelled");
    }
    std::vector<std::size_t> perm = rng.Permutation(n);
    stat.Add(MarginalForPlayer(game, perm, player));
    if (options.antithetic) {
      std::reverse(perm.begin(), perm.end());
      stat.Add(MarginalForPlayer(game, perm, player));
    }
    if ((i + 1) % check_interval == 0) {
      if (stop.soften.cancelled()) break;
      if (stop.target_half_width.has_value() && PlayerConverged(stat, stop)) {
        break;
      }
    }
  }
  return stat.ToEstimate();
}

Result<Estimate> EstimateShapleyStratified(const Game& game,
                                           std::size_t player,
                                           const SamplingOptions& options) {
  const std::size_t n = game.num_players();
  if (player >= n) {
    return Status::OutOfRange("player " + std::to_string(player) +
                              " out of range for " + std::to_string(n) +
                              "-player game");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }

  // Others = all players but `player`; a stratum-s coalition is a
  // uniform size-s subset of them (partial Fisher-Yates prefix).
  std::vector<std::size_t> base_others;
  base_others.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != player) base_others.push_back(i);
  }

  // Per-stratum state: own RNG stream (ShardSeed-derived, persisted
  // across the pilot and Neyman phases) and own shuffle buffer, so
  // strata can be sampled concurrently with bit-identical results at
  // every thread count.
  struct Stratum {
    Rng rng{0};
    std::vector<std::size_t> others;
    RunningStat stat;
  };
  std::vector<Stratum> strata(n);
  for (std::size_t s = 0; s < n; ++s) {
    strata[s].rng = Rng(ShardSeed(options.seed, s));
    strata[s].others = base_others;
  }

  auto run_phase = [&](const std::vector<std::size_t>& alloc) {
    ThreadPool::RunSharded(
        options.pool, options.num_threads, n, [&](std::size_t s) {
          Stratum& st = strata[s];
          Coalition coalition(n, false);
          for (std::size_t sample = 0; sample < alloc[s]; ++sample) {
            if (options.cancel.cancelled()) return;
            // Uniform size-s subset of `others`.
            for (std::size_t i = 0; i < s; ++i) {
              const std::size_t j =
                  i + static_cast<std::size_t>(
                          st.rng.UniformUint64(st.others.size() - i));
              std::swap(st.others[i], st.others[j]);
            }
            std::fill(coalition.begin(), coalition.end(), false);
            for (std::size_t i = 0; i < s; ++i) coalition[st.others[i]] = true;
            const double without = game.Value(coalition);
            coalition[player] = true;
            const double with = game.Value(coalition);
            coalition[player] = false;
            st.stat.Add(with - without);
          }
        });
  };

  // Pilot wave: half the budget, split evenly (at least one sample per
  // stratum so every stratum mean is defined).
  const std::size_t pilot =
      std::max<std::size_t>(1, options.num_samples / (2 * n));
  run_phase(std::vector<std::size_t>(n, pilot));
  if (options.cancel.cancelled()) {
    return Status::Cancelled("stratified Shapley sampling cancelled");
  }

  // Neyman allocation for the remainder: extra samples proportional to
  // the observed per-stratum standard deviation (minimises the variance
  // of the stratified mean for a fixed budget). Largest-remainder
  // rounding with index tie-break keeps the split deterministic; when
  // every stratum looked deterministic in the pilot, fall back to an
  // even split.
  const std::size_t spent = n * pilot;
  if (options.num_samples > spent) {
    std::size_t remaining = options.num_samples - spent;
    std::vector<std::size_t> alloc(n, 0);
    double total_sd = 0.0;
    std::vector<double> sd(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      sd[s] = std::sqrt(strata[s].stat.variance());
      total_sd += sd[s];
    }
    if (total_sd <= 0.0) {
      for (std::size_t s = 0; s < n; ++s) {
        alloc[s] = remaining / n + (s < remaining % n ? 1 : 0);
      }
    } else {
      std::vector<std::pair<double, std::size_t>> frac;  // (-fraction, s)
      frac.reserve(n);
      std::size_t assigned = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const double exact =
            static_cast<double>(remaining) * sd[s] / total_sd;
        alloc[s] = static_cast<std::size_t>(exact);
        assigned += alloc[s];
        frac.emplace_back(-(exact - std::floor(exact)), s);
      }
      std::sort(frac.begin(), frac.end());
      for (std::size_t i = 0; assigned < remaining; ++i) {
        ++alloc[frac[i % n].second];
        ++assigned;
      }
    }
    run_phase(alloc);
    if (options.cancel.cancelled()) {
      return Status::Cancelled("stratified Shapley sampling cancelled");
    }
  }

  // Stratified mean = (1/n) Σ_s mean_s; variance adds per stratum.
  Estimate e;
  double variance = 0;
  std::size_t total = 0;
  for (const Stratum& st : strata) {
    e.value += st.stat.mean() / static_cast<double>(n);
    if (st.stat.count() > 1) {
      variance += st.stat.variance() /
                  (static_cast<double>(st.stat.count()) *
                   static_cast<double>(n) * static_cast<double>(n));
    }
    total += st.stat.count();
  }
  e.std_error = std::sqrt(variance);
  e.num_samples = total;
  return e;
}

SweepOutcome RunShardedSweeps(
    const ShardedSweepConfig& config, std::size_t num_players,
    const std::function<void(Rng* rng, std::vector<RunningStat>* stats,
                             const std::vector<bool>& frozen)>& sweep) {
  TREX_CHECK_GT(config.shard_size, 0u);
  // The sweep budget is partitioned into fixed shards; each shard owns a
  // deterministically derived RNG stream and completed shards are folded
  // into the merge in shard-index order, so the merged statistics depend
  // only on (config, sweep), never on thread count or scheduling.
  //
  // Shards are processed in waves. Under an active stopping rule a
  // wave's width is derived from `check_interval`, never from the pool
  // width, because every anytime decision (stop, freeze, top-k
  // separation, soften) happens at a wave boundary on the merged
  // statistics and must land on the same shard index for every thread
  // count. Without a rule the wave only bounds memory (the merge order
  // is the global shard order regardless), so it scales with the pool.
  //
  // No bound below is formed past the budget: `num_samples + shard_size
  // - 1` or `(shard + 1) * shard_size` would wrap for a budget near
  // SIZE_MAX and leave zero sweeps to run.
  const std::size_t shard_size = config.shard_size;
  const std::size_t num_shards = CeilDiv(config.num_samples, shard_size);
  // One past the last sweep of `shard`.
  auto shard_end = [&](std::size_t shard) {
    const std::size_t begin = shard * shard_size;
    return begin + std::min(shard_size, config.num_samples - begin);
  };
  ThreadPool* pool = config.pool;
  std::optional<ThreadPool> local_pool;
  if (pool == nullptr) {
    local_pool.emplace(std::max<std::size_t>(config.num_threads, 1));
    pool = &*local_pool;
  }
  const StopRule& stop = config.stop;
  const std::size_t wave_shards =
      stop.active()
          ? CeilDiv(std::max<std::size_t>(config.check_interval, 1),
                    shard_size)
          : pool->num_threads() * 4;

  SweepOutcome out;
  out.stats.assign(num_players, RunningStat{});
  std::vector<bool> frozen(num_players, false);
  const bool can_freeze =
      stop.freeze_converged && stop.target_half_width.has_value();

  for (std::size_t start = 0; start < num_shards;) {
    const std::size_t count = std::min(wave_shards, num_shards - start);
    std::vector<std::vector<RunningStat>> wave_stats(
        count, std::vector<RunningStat>(num_players));
    pool->Run(count, [&](std::size_t i) {
      const std::size_t shard = start + i;
      const std::size_t end = shard_end(shard);
      Rng rng(ShardSeed(config.seed, shard));
      for (std::size_t s = shard * shard_size; s < end; ++s) {
        // Poll between sweeps: one sweep costs n+1 repair runs, so this
        // bounds cancellation latency at one sweep per worker. Results
        // after cancellation are discarded by the caller.
        if (config.cancel.cancelled()) break;
        sweep(&rng, &wave_stats[i], frozen);
      }
    });
    if (config.cancel.cancelled()) break;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t p = 0; p < num_players; ++p) {
        out.stats[p].Merge(wave_stats[i][p]);
      }
    }
    start += count;
    out.sweeps = shard_end(start - 1);
    ++out.waves;

    // Wave boundary: every anytime decision below runs on the merged
    // statistics, whose content is fixed by the shard index range —
    // identical for every thread count.
    bool stop_now = false;
    if (stop.target_half_width.has_value() && num_players > 0) {
      bool all_converged = true;
      for (std::size_t p = 0; p < num_players; ++p) {
        const bool conv = PlayerConverged(out.stats[p], stop);
        if (can_freeze && conv) frozen[p] = true;
        all_converged = all_converged && conv;
      }
      stop_now = all_converged;
    }
    if (!stop_now && stop.top_k > 0 && num_players > 0) {
      if (stop.top_k >= num_players) {
        out.separated = true;  // nothing to separate from
        stop_now = true;
      } else {
        const std::vector<std::size_t> order = RankByMean(out.stats);
        const RunningStat& kth = out.stats[order[stop.top_k - 1]];
        const RunningStat& next = out.stats[order[stop.top_k]];
        const double lower = kth.mean() - CiHalfWidth(kth, stop);
        const double upper = next.mean() + CiHalfWidth(next, stop);
        if (kth.count() >= stop.min_samples && lower > upper) {
          out.separated = true;
          stop_now = true;
        }
      }
    }
    if (!stop_now && stop.soften.cancelled()) {
      out.softened = true;
      stop_now = true;
    }
    if (stop_now) {
      out.stopped_early = start < num_shards;
      break;
    }
  }

  for (std::size_t p = 0; p < num_players; ++p) {
    if (frozen[p]) ++out.frozen_players;
    out.achieved_half_width =
        std::max(out.achieved_half_width, CiHalfWidth(out.stats[p], stop));
  }
  return out;
}

Result<std::vector<Estimate>> EstimateShapleyAllPlayers(
    const Game& game, const SamplingOptions& options, SweepOutcome* outcome) {
  const std::size_t n = game.num_players();
  if (n == 0) return std::vector<Estimate>{};
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  if (options.shard_size == 0) {
    return Status::InvalidArgument("shard_size must be positive");
  }

  ShardedSweepConfig config;
  config.num_samples = options.num_samples;
  config.shard_size = options.shard_size;
  config.num_threads = options.num_threads;
  config.seed = options.seed;
  config.stop = options.stop;
  config.check_interval = options.check_interval;
  config.pool = options.pool;
  config.cancel = options.cancel;

  auto one_sweep = [&](Rng* rng, std::vector<RunningStat>* stats,
                       const std::vector<bool>& frozen) {
    auto run_perm = [&](const std::vector<std::size_t>& perm) {
      // Frozen players keep their position in the permutation (so other
      // players' coalitions are undisturbed) but skip both of their
      // evaluations: the prefix value is re-evaluated lazily only when
      // the next unfrozen player needs it.
      Coalition coalition(n, false);
      double prev = 0.0;
      bool have_prev = false;
      // One permutation sweep is the cancellation unit:
      // trex-check-ok(cancel-poll): RunShardedSweeps polls at shard bounds
      for (std::size_t pos = 0; pos < n; ++pos) {
        const std::size_t p = perm[pos];
        if (frozen[p]) {
          coalition[p] = true;
          have_prev = false;
          continue;
        }
        if (!have_prev) prev = game.Value(coalition);
        coalition[p] = true;
        const double curr = game.Value(coalition);
        (*stats)[p].Add(curr - prev);
        prev = curr;
        have_prev = true;
      }
    };
    std::vector<std::size_t> perm = rng->Permutation(n);
    run_perm(perm);
    if (options.antithetic) {
      std::reverse(perm.begin(), perm.end());
      run_perm(perm);
    }
  };

  SweepOutcome out = RunShardedSweeps(config, n, one_sweep);
  if (options.cancel.cancelled()) {
    return Status::Cancelled("Shapley sweep sampling cancelled");
  }
  std::vector<Estimate> estimates;
  estimates.reserve(n);
  for (const RunningStat& s : out.stats) estimates.push_back(s.ToEstimate());
  if (outcome != nullptr) *outcome = std::move(out);
  return estimates;
}

}  // namespace trex::shap
