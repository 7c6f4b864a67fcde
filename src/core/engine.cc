#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/counterfactual.h"
#include "core/interaction.h"
#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"
#include "dc/graph.h"
#include "table/stats.h"

namespace trex {
namespace {

/// Permutation sweeps per shard of the sampled constraint and cell
/// sweeps: the unit of parallel work and of the early-stopping check.
/// Fixed (not an option) so that estimates never depend on the
/// execution configuration.
constexpr std::size_t kSweepShardSize = 32;

/// Sorts player scores descending by Shapley value; ties keep the
/// original player order (stable), making output deterministic.
void RankDescending(std::vector<PlayerScore>* scores) {
  std::stable_sort(scores->begin(), scores->end(),
                   [](const PlayerScore& a, const PlayerScore& b) {
                     return a.shapley > b.shapley;
                   });
}

Explanation MakeBaseExplanation(const BlackBoxRepair& box,
                                std::size_t target_index) {
  Explanation ex;
  ex.target = box.target(target_index);
  ex.target_label = ex.target.ToString(box.dirty().schema());
  ex.old_value = box.dirty().at(ex.target);
  ex.new_value = box.reference_clean().at(ex.target);
  return ex;
}

}  // namespace

const char* AbsentCellPolicyToString(AbsentCellPolicy policy) {
  switch (policy) {
    case AbsentCellPolicy::kNull:
      return "null";
    case AbsentCellPolicy::kSampleFromColumn:
      return "column-sample";
  }
  return "?";
}

std::vector<PlayerScore> Explanation::TopK(std::size_t k) const {
  const std::size_t count = std::min(k, ranked.size());
  return {ranked.begin(), ranked.begin() + count};
}

double Explanation::TotalAttribution() const {
  double total = 0;
  for (const PlayerScore& p : ranked) total += p.shapley;
  return total;
}

const char* ExplainKindToString(ExplainKind kind) {
  switch (kind) {
    case ExplainKind::kConstraints:
      return "constraints";
    case ExplainKind::kCells:
      return "cells";
    case ExplainKind::kInteractions:
      return "interactions";
    case ExplainKind::kRemovalSets:
      return "removal-sets";
    case ExplainKind::kSingleCell:
      return "single-cell";
  }
  return "?";
}

Engine::Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
               dc::DcSet dcs, Table dirty, EngineOptions options)
    : Engine(std::move(algorithm), std::move(dcs),
             std::make_shared<const Table>(std::move(dirty)), options) {}

Engine::Engine(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
               dc::DcSet dcs, std::shared_ptr<const Table> dirty,
               EngineOptions options)
    : algorithm_(std::move(algorithm)),
      dcs_(std::move(dcs)),
      dirty_(std::move(dirty)),
      options_(options) {
  TREX_CHECK(algorithm_ != nullptr);
  TREX_CHECK(dirty_ != nullptr);
}

Status Engine::EnsureRepair() {
  if (box_.has_value()) return Status::Ok();
  // The box *shares* the engine's dirty table (one resident copy, not
  // three across session/engine/box).
  TREX_ASSIGN_OR_RETURN(box_, BlackBoxRepair::MakeMultiTarget(
                                  algorithm_.get(), dcs_, dirty_, {}));
  return Status::Ok();
}

const Table& Engine::reference_clean() const {
  TREX_CHECK(box_.has_value()) << "call EnsureRepair() first";
  return box_->reference_clean();
}

std::size_t Engine::num_algorithm_calls() const {
  return box_.has_value() ? box_->num_algorithm_calls() : 0;
}

std::size_t Engine::num_cache_hits() const {
  return box_.has_value() ? box_->num_cache_hits() : 0;
}

std::size_t Engine::num_cross_request_hits() const {
  return box_.has_value() ? box_->num_cross_request_hits() : 0;
}

std::size_t Engine::approx_memo_bytes() const {
  return box_.has_value() ? box_->approx_memo_bytes() : 0;
}

Result<std::size_t> Engine::EnsureTarget(CellRef target) {
  return box_->AddTarget(target);
}

ThreadPool* Engine::SweepPool() {
  if (options_.num_threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return pool_.get();
}

Status Engine::RequireRepairedTarget(std::size_t target_index) const {
  if (!box_->target_was_repaired(target_index)) {
    const CellRef target = box_->target(target_index);
    return Status::InvalidArgument(
        "cell " + target.ToString(dirty_->schema()) +
        " was not repaired by the algorithm (value '" +
        dirty_->at(target).ToString() +
        "' is unchanged); pick a repaired cell");
  }
  return Status::Ok();
}

Status Engine::RequireMaskableConstraints() const {
  if (dcs_.empty()) {
    return Status::InvalidArgument("constraint set is empty");
  }
  if (dcs_.size() > BlackBoxRepair::kMaxMaskConstraints) {
    return Status::InvalidArgument(
        "constraint games support at most 64 constraints");
  }
  return Status::Ok();
}

Status Engine::ValidateRequest(const ExplainRequest& request) const {
  // Cheap input validation up front: a malformed request must never pay
  // for a reference repair run.
  switch (request.kind) {
    case ExplainKind::kConstraints:
    case ExplainKind::kRemovalSets:
      TREX_RETURN_NOT_OK(RequireMaskableConstraints());
      break;
    case ExplainKind::kInteractions:
      if (dcs_.size() < 2) {
        return Status::InvalidArgument(
            "interaction indices need at least two constraints");
      }
      TREX_RETURN_NOT_OK(RequireMaskableConstraints());
      break;
    case ExplainKind::kSingleCell:
      if (!request.single_cell.has_value()) {
        return Status::InvalidArgument(
            "kSingleCell requests must set ExplainRequest::single_cell");
      }
      if (request.single_cell->row >= dirty_->num_rows() ||
          request.single_cell->col >= dirty_->num_columns()) {
        return Status::OutOfRange("player cell " +
                                  request.single_cell->ToString() +
                                  " outside the table");
      }
      break;
    case ExplainKind::kCells:
      break;
  }
  if (request.target.row >= dirty_->num_rows() ||
      request.target.col >= dirty_->num_columns()) {
    return Status::OutOfRange("target cell " + request.target.ToString() +
                              " outside the table");
  }
  // Comparisons are written so that NaN fails them: a malformed stop
  // rule would otherwise never fire and silently spend the full budget.
  const AnytimeOptions& any = EffectiveAnytime(request);
  if (any.enabled()) {
    if (any.target_ci_half_width.has_value() &&
        !(*any.target_ci_half_width >= 0)) {
      return Status::InvalidArgument(
          "anytime target_ci_half_width must be >= 0");
    }
    if (!(any.z > 0)) {
      return Status::InvalidArgument("anytime z must be > 0");
    }
    if (!(any.delta > 0 && any.delta < 1)) {
      return Status::InvalidArgument("anytime delta must lie in (0, 1)");
    }
  }
  return Status::Ok();
}

Result<ExplainResult> Engine::Explain(const ExplainRequest& request) {
  TREX_RETURN_NOT_OK(ValidateRequest(request));
  if (request.cancel.cancelled()) {
    return Status::Cancelled("request cancelled before execution");
  }
  const std::size_t calls_before = num_algorithm_calls();
  const std::size_t hits_before = num_cache_hits();
  const std::size_t cross_before = num_cross_request_hits();
  TREX_RETURN_NOT_OK(EnsureRepair());
  box_->BeginRequest(next_request_id_++);
  TREX_ASSIGN_OR_RETURN(const std::size_t target_index,
                        EnsureTarget(request.target));

  // A failed memo-miss repair fires the box's abort token (see
  // repair_game.h's failure channel): merge it into the request's
  // cancel so every sweep shard stops at its next poll instead of
  // hammering a failing backend, then convert the resulting kCancelled
  // back into the underlying failure below.
  ExplainRequest effective = request;
  effective.cancel =
      CancelToken::AnyOf(effective.cancel, box_->eval_abort_token());

  ExplainResult result;
  result.kind = request.kind;
  result.target = request.target;
  Status dispatch = [&]() -> Status {
    switch (effective.kind) {
      case ExplainKind::kConstraints: {
        TREX_ASSIGN_OR_RETURN(
            Explanation ex,
            ExplainConstraints(target_index, effective, &result));
        result.explanation = std::move(ex);
        break;
      }
      case ExplainKind::kCells: {
        TREX_ASSIGN_OR_RETURN(Explanation ex,
                              ExplainCells(target_index, effective, &result));
        result.explanation = std::move(ex);
        break;
      }
      case ExplainKind::kInteractions: {
        TREX_ASSIGN_OR_RETURN(
            result.interactions,
            ExplainInteractions(target_index, effective.constraints,
                                effective.cancel));
        break;
      }
      case ExplainKind::kRemovalSets: {
        TREX_ASSIGN_OR_RETURN(
            result.removal_sets,
            ExplainRemovalSets(target_index, effective.constraints,
                               effective.max_removal_set_size,
                               effective.cancel));
        break;
      }
      case ExplainKind::kSingleCell: {
        TREX_ASSIGN_OR_RETURN(
            PlayerScore score,
            ExplainSingleCell(target_index, effective, &result));
        result.single_cell = std::move(score);
        break;
      }
    }
    return Status::Ok();
  }();
  // A failed eval taints everything derived after it: the box hands
  // the sweep a placeholder value for the call that failed, so the run
  // must report the repair failure (typically transient kUnavailable,
  // which the serving layer retries) no matter how the dispatch ended —
  // abort-driven kCancelled, a different error tripped by the
  // placeholder (e.g. a v(N)=0 rejection), or even nominal success.
  Status eval = box_->eval_error();
  if (!eval.ok()) return eval;
  if (!dispatch.ok()) return dispatch;
  result.algorithm_calls = num_algorithm_calls() - calls_before;
  result.cache_hits = num_cache_hits() - hits_before;
  result.cross_request_hits = num_cross_request_hits() - cross_before;
  if (result.explanation.has_value()) {
    // Per-request cost, not engine-lifetime totals: a second query on a
    // warm engine reports only the work it added.
    result.explanation->algorithm_calls = result.algorithm_calls;
    result.explanation->cache_hits = result.cache_hits;
  }
  return result;
}

// The per-kind helpers assume `ValidateRequest` already screened the
// request; they only enforce conditions that need the reference repair.

const AnytimeOptions& Engine::EffectiveAnytime(
    const ExplainRequest& request) const {
  return request.anytime.has_value() ? *request.anytime : options_.anytime;
}

shap::StopRule Engine::EffectiveStopRule(const ExplainRequest& request) const {
  const AnytimeOptions& any = EffectiveAnytime(request);
  shap::StopRule stop;
  if (any.enabled()) {
    stop.target_half_width = any.target_ci_half_width;
    stop.top_k = any.top_k;
    stop.bound = any.bound;
    stop.z = any.z;
    stop.delta = any.delta;
    stop.min_samples = any.min_samples;
    stop.freeze_converged = any.freeze_converged;
  }
  stop.soften = request.soften;
  return stop;
}

std::size_t Engine::EffectiveBudget(const ExplainRequest& request,
                                    std::size_t num_samples) const {
  const AnytimeOptions& any = EffectiveAnytime(request);
  return any.enabled() && any.max_sweeps > 0 ? any.max_sweeps : num_samples;
}

namespace {

/// Copies a sweep outcome's anytime telemetry onto the request's result.
void RecordOutcome(const shap::SweepOutcome& outcome, ExplainResult* result) {
  if (result == nullptr) return;
  result->sweeps = outcome.sweeps;
  if (outcome.waves > 0) {
    result->achieved_ci_half_width = outcome.achieved_half_width;
  }
  result->early_stopped = outcome.stopped_early;
  result->approximate = outcome.softened;
}

}  // namespace

Result<Explanation> Engine::ExplainConstraints(std::size_t target_index,
                                               const ExplainRequest& request,
                                               ExplainResult* result) {
  const ConstraintOptions& options = request.constraints;
  const CancelToken& cancel = request.cancel;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  Explanation ex = MakeBaseExplanation(*box_, target_index);

  const bool exact = dcs_.size() <= options.max_exact_players;
  if (options.use_banzhaf && !exact) {
    return Status::InvalidArgument(
        "Banzhaf attribution is exact-only; reduce the constraint count "
        "or raise max_exact_players");
  }
  std::vector<PlayerScore> scores;
  scores.reserve(dcs_.size());
  if (exact) {
    shap::ExactShapleyOptions exact_options;
    exact_options.max_players = options.max_exact_players;
    // Shard the 2^n subset walk over the engine's persistent pool;
    // values are bit-identical for every thread count.
    exact_options.num_threads = options_.num_threads;
    exact_options.pool = SweepPool();
    exact_options.cancel = cancel;
    TREX_ASSIGN_OR_RETURN(
        std::vector<double> values,
        options.use_banzhaf
            ? shap::ComputeExactBanzhaf(game, exact_options)
            : shap::ComputeExactShapley(game, exact_options));
    for (std::size_t i = 0; i < dcs_.size(); ++i) {
      PlayerScore score;
      score.label = dcs_.at(i).name();
      score.shapley = values[i];
      score.constraint_index = i;
      scores.push_back(std::move(score));
    }
    ex.method = options.use_banzhaf ? "exact(banzhaf)" : "exact";
  } else {
    shap::SamplingOptions sampling;
    sampling.num_samples = EffectiveBudget(request, options.num_samples);
    sampling.seed = options.seed;
    sampling.shard_size = kSweepShardSize;
    sampling.stop = EffectiveStopRule(request);
    sampling.check_interval = EffectiveAnytime(request).check_interval;
    sampling.num_threads = options_.num_threads;
    sampling.pool = SweepPool();
    sampling.cancel = cancel;
    shap::SweepOutcome outcome;
    TREX_ASSIGN_OR_RETURN(
        std::vector<shap::Estimate> estimates,
        shap::EstimateShapleyAllPlayers(game, sampling, &outcome));
    RecordOutcome(outcome, result);
    for (std::size_t i = 0; i < dcs_.size(); ++i) {
      PlayerScore score;
      score.label = dcs_.at(i).name();
      score.shapley = estimates[i].value;
      score.std_error = estimates[i].std_error;
      score.num_samples = estimates[i].num_samples;
      score.constraint_index = i;
      scores.push_back(std::move(score));
    }
    ex.method = StrFormat("sampling(m=%zu)", sampling.num_samples);
  }
  ex.ranked = std::move(scores);
  RankDescending(&ex.ranked);
  return ex;
}

Result<std::vector<InteractionScore>> Engine::ExplainInteractions(
    std::size_t target_index, const ConstraintOptions& options,
    const CancelToken& cancel) {
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  shap::InteractionOptions interaction_options;
  interaction_options.max_players = options.max_exact_players;
  interaction_options.num_threads = options_.num_threads;
  interaction_options.pool = SweepPool();
  interaction_options.cancel = cancel;
  TREX_ASSIGN_OR_RETURN(
      std::vector<shap::Interaction> raw,
      shap::ComputeShapleyInteractions(game, interaction_options));
  std::vector<InteractionScore> scores;
  scores.reserve(raw.size());
  for (const shap::Interaction& interaction : raw) {
    scores.push_back(InteractionScore{
        dcs_.at(interaction.player_a).name(),
        dcs_.at(interaction.player_b).name(), interaction.value});
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const InteractionScore& a, const InteractionScore& b) {
                     return std::fabs(a.interaction) >
                            std::fabs(b.interaction);
                   });
  return scores;
}

Result<std::vector<std::vector<std::string>>> Engine::ExplainRemovalSets(
    std::size_t target_index, const ConstraintOptions& options,
    std::size_t max_set_size, const CancelToken& cancel) {
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));

  ConstraintGame game(&*box_, target_index);
  shap::CounterfactualOptions counterfactual_options;
  counterfactual_options.max_set_size = max_set_size;
  counterfactual_options.max_players = options.max_exact_players;
  counterfactual_options.cancel = cancel;
  TREX_ASSIGN_OR_RETURN(auto removal_sets,
                        shap::MinimalRemovalSets(game, counterfactual_options));
  std::vector<std::vector<std::string>> named;
  named.reserve(removal_sets.size());
  for (const auto& removal : removal_sets) {
    std::vector<std::string> labels;
    labels.reserve(removal.size());
    for (std::size_t index : removal) labels.push_back(dcs_.at(index).name());
    named.push_back(std::move(labels));
  }
  return named;
}

Result<std::vector<CellRef>> Engine::PlayerCells(
    const CellOptions& options, CellRef target) const {
  if (!options.prune) return dirty_->AllCells();
  std::optional<dc::AttributeGraph> graph =
      algorithm_->InfluenceGraph(dcs_, dirty_->schema());
  if (!graph.has_value()) {
    graph = dc::AttributeGraph::FromDcSet(dcs_, dirty_->num_columns());
  }
  return dc::RelevantCells(*dirty_, *graph, target);
}

Result<Explanation> Engine::ExplainCells(std::size_t target_index,
                                         const ExplainRequest& request,
                                         ExplainResult* result) {
  const CellOptions& options = request.cells;
  const CancelToken& cancel = request.cancel;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));
  const CellRef target = box_->target(target_index);
  TREX_ASSIGN_OR_RETURN(std::vector<CellRef> players,
                        PlayerCells(options, target));
  if (players.empty()) {
    return Status::InvalidArgument("no candidate player cells");
  }

  CellMethod method = options.method;
  if (method == CellMethod::kAuto) {
    method = (options.policy == AbsentCellPolicy::kNull &&
              players.size() <= options.max_exact_players)
                 ? CellMethod::kExact
                 : CellMethod::kSampling;
  }

  Explanation ex = MakeBaseExplanation(*box_, target_index);
  std::vector<PlayerScore> scores;
  scores.reserve(players.size());

  if (method == CellMethod::kExact) {
    if (options.policy != AbsentCellPolicy::kNull) {
      return Status::InvalidArgument(
          "exact cell Shapley requires AbsentCellPolicy::kNull (the "
          "column-sample policy defines a stochastic game)");
    }
    CellGame game(&*box_, players, target_index);
    shap::ExactShapleyOptions exact_options;
    exact_options.max_players = options.max_exact_players;
    exact_options.num_threads = options_.num_threads;
    exact_options.pool = SweepPool();
    exact_options.cancel = cancel;
    TREX_ASSIGN_OR_RETURN(std::vector<double> values,
                          shap::ComputeExactShapley(game, exact_options));
    for (std::size_t i = 0; i < players.size(); ++i) {
      PlayerScore score;
      score.cell = players[i];
      score.label = players[i].ToString(dirty_->schema());
      score.shapley = values[i];
      scores.push_back(std::move(score));
    }
    ex.method = "exact(null-policy)";
  } else {
    // Permutation-sweep sampling with the configured replacement policy
    // (Example 2.5 generalized to rank all players per sweep), sharded
    // like shap::EstimateShapleyAllPlayers: fixed shards with derived
    // seeds make the estimates independent of thread count. The sweep's
    // write set finds a player's write by binary search, so it relies on
    // `PlayerCells` returning cells in linear-index order.
    TREX_CHECK(std::is_sorted(players.begin(), players.end()));
    TableStats stats(&box_->dirty());
    if (options.policy == AbsentCellPolicy::kSampleFromColumn) {
      // Pre-build the column distributions serially: TableStats builds
      // lazily and shards must not race the first build.
      for (const CellRef& cell : players) stats.Column(cell.col);
    }

    auto replacement = [&](CellRef cell, Rng* rng) -> Value {
      if (options.policy == AbsentCellPolicy::kNull) return Value::Null();
      const ColumnStats& column = stats.Column(cell.col);
      if (column.total() == 0) return Value::Null();
      return column.Sample(rng);
    };

    auto one_sweep = [&](Rng* rng, std::vector<shap::RunningStat>* running,
                         const std::vector<bool>& frozen) {
      const std::vector<std::size_t> perm = rng->Permutation(players.size());
      // Baseline: every player absent (replaced); non-players untouched.
      // The working table is a *write set* over the dirty table, kept in
      // the players' linear-index order — the memo's canonical order, so
      // no evaluation re-sorts it. Restoring a player erases its write,
      // and the perturbed table is never materialized on the memo hit
      // path. Replacement draws stay in the exact order of the
      // materialized loop, so estimates are bit-identical. Frozen
      // players still have their writes removed in permutation order
      // (other players' coalitions are undisturbed) but skip both of
      // their evaluations; the preceding state is re-evaluated lazily
      // when the next unfrozen player needs it.
      std::vector<CellWrite> writes;
      writes.reserve(players.size());
      for (const CellRef& player : players) {
        writes.push_back({player, replacement(player, rng)});
      }
      double prev = 0.0;
      bool have_prev = false;
      // One permutation sweep is the cancellation unit:
      // trex-check-ok(cancel-poll): RunShardedSweeps polls at shard bounds
      for (std::size_t pos = 0; pos < perm.size(); ++pos) {
        const std::size_t player = perm[pos];
        if (!frozen[player] && !have_prev) {
          // State before this player's restoration (the all-absent
          // baseline on the first unfrozen player).
          prev = box_->EvalPerturbation(writes, target_index) ? 1.0 : 0.0;
        }
        writes.erase(std::lower_bound(
            writes.begin(), writes.end(), players[player],
            [](const CellWrite& write, CellRef cell) {
              return write.cell < cell;
            }));
        if (frozen[player]) {
          have_prev = false;
          continue;
        }
        const double curr =
            box_->EvalPerturbation(writes, target_index) ? 1.0 : 0.0;
        (*running)[player].Add(curr - prev);
        prev = curr;
        have_prev = true;
      }
    };

    shap::ShardedSweepConfig config;
    config.num_samples = EffectiveBudget(request, options.num_samples);
    config.shard_size = kSweepShardSize;
    config.num_threads = options_.num_threads;
    config.seed = options.seed;
    config.stop = EffectiveStopRule(request);
    config.check_interval = EffectiveAnytime(request).check_interval;
    config.pool = SweepPool();
    config.cancel = cancel;
    shap::SweepOutcome outcome =
        shap::RunShardedSweeps(config, players.size(), one_sweep);
    if (cancel.cancelled()) {
      return Status::Cancelled("cell explanation cancelled mid-sweep");
    }
    RecordOutcome(outcome, result);

    for (std::size_t i = 0; i < players.size(); ++i) {
      const shap::Estimate estimate = outcome.stats[i].ToEstimate();
      PlayerScore score;
      score.cell = players[i];
      score.label = players[i].ToString(dirty_->schema());
      score.shapley = estimate.value;
      score.std_error = estimate.std_error;
      score.num_samples = estimate.num_samples;
      scores.push_back(std::move(score));
    }
    ex.method = StrFormat(
        "sampling(m=%zu, policy=%s, players=%zu/%zu)",
        config.num_samples, AbsentCellPolicyToString(options.policy),
        players.size(), dirty_->num_cells());
  }

  ex.ranked = std::move(scores);
  RankDescending(&ex.ranked);
  return ex;
}

Result<PlayerScore> Engine::ExplainSingleCell(std::size_t target_index,
                                              const ExplainRequest& request,
                                              ExplainResult* result) {
  const CellOptions& options = request.cells;
  const CancelToken& cancel = request.cancel;
  const CellRef player_cell = *request.single_cell;
  TREX_RETURN_NOT_OK(RequireRepairedTarget(target_index));
  const CellRef target = box_->target(target_index);

  TREX_ASSIGN_OR_RETURN(std::vector<CellRef> players,
                        PlayerCells(options, target));
  // The player of interest must be in the game even if pruning would
  // drop it (its Shapley value is then provably 0, but we measure it).
  if (std::find(players.begin(), players.end(), player_cell) ==
      players.end()) {
    players.push_back(player_cell);
  }
  std::size_t player_index = 0;
  for (std::size_t i = 0; i < players.size(); ++i) {
    if (players[i] == player_cell) player_index = i;
  }

  Rng rng(options.seed);
  TableStats stats(&box_->dirty());
  auto replacement = [&](CellRef cell) -> Value {
    if (options.policy == AbsentCellPolicy::kNull) return Value::Null();
    const ColumnStats& column = stats.Column(cell.col);
    if (column.total() == 0) return Value::Null();
    return column.Sample(&rng);
  };

  // Example 2.5: per iteration, draw a permutation; the coalition is the
  // players preceding the cell of interest. The with/without pair shares
  // one write set — "without" appends the replacement of the cell of
  // interest — so neither instance is materialized on the memo hit path.
  // Replacement draws keep the original order, so estimates are
  // bit-identical to the materialized loop.
  const shap::StopRule stop = EffectiveStopRule(request);
  const std::size_t budget = EffectiveBudget(request, options.num_samples);
  const std::size_t check_interval =
      std::max<std::size_t>(1, EffectiveAnytime(request).check_interval);
  bool early_stopped = false;
  bool approximate = false;
  shap::RunningStat stat;
  std::vector<CellWrite> writes;
  for (std::size_t sample = 0; sample < budget; ++sample) {
    if (cancel.cancelled()) {
      return Status::Cancelled("single-cell estimation cancelled");
    }
    if (stop.soften.cancelled()) {
      // Deadline degradation: keep what we have, flag it approximate.
      approximate = stat.count() > 0;
      if (approximate) break;
    }
    const std::vector<std::size_t> perm = rng.Permutation(players.size());
    writes.clear();
    bool before_player = true;
    for (std::size_t pos = 0; pos < perm.size(); ++pos) {
      if (perm[pos] == player_index) {
        before_player = false;
        continue;
      }
      if (!before_player) {
        const CellRef cell = players[perm[pos]];
        writes.push_back({cell, replacement(cell)});
      }
    }
    const double v_with =
        box_->EvalPerturbation(writes, target_index) ? 1.0 : 0.0;
    writes.push_back({player_cell, replacement(player_cell)});
    const double v_without =
        box_->EvalPerturbation(writes, target_index) ? 1.0 : 0.0;
    stat.Add(v_with - v_without);
    if (stop.target_half_width.has_value() &&
        (sample + 1) % check_interval == 0 &&
        stat.count() >= std::max<std::size_t>(stop.min_samples, 2) &&
        shap::CiHalfWidth(stat, stop) <= *stop.target_half_width) {
      early_stopped = sample + 1 < budget;
      break;
    }
  }

  if (result != nullptr) {
    result->sweeps = stat.count();
    if (stat.count() >= 2) {
      result->achieved_ci_half_width = shap::CiHalfWidth(stat, stop);
    }
    result->early_stopped = early_stopped;
    result->approximate = approximate;
  }
  const shap::Estimate estimate = stat.ToEstimate();
  PlayerScore score;
  score.cell = player_cell;
  score.label = player_cell.ToString(dirty_->schema());
  score.shapley = estimate.value;
  score.std_error = estimate.std_error;
  score.num_samples = estimate.num_samples;
  return score;
}

}  // namespace trex
