// Experiment: Example 2.5 / §2.3 — convergence of the permutation-
// sampling Shapley estimator.
//
// The paper's claim: exact cell Shapley is exponential, so T-REx uses
// the Strumbelj–Kononenko sampler; its estimate converges as the sample
// count m grows. We measure:
//   (1) |estimate - exact| vs m on the constraint game (exact value
//       known: Shap(C3) = 2/3);
//   (2) max-abs-error vs m on a reduced cell game (12 players -> exact
//       enumeration feasible as ground truth) under the null policy;
//   (3) the black-box call budget per m.

//   (4) the anytime path: confidence-bounded early stopping on the
//       wave-synchronous parallel driver — anytime(8 threads) must reach
//       the target CI in less wall-clock than both serial early-stop and
//       the fixed-budget parallel run, with estimates bit-identical
//       across thread counts (same stopping wave). Emits "JSON " rows
//       for the CI smoke; `--anytime_only` runs just this scenario.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/repair_game.h"
#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

namespace {

using namespace trex;  // NOLINT

void ConstraintGameConvergence(const repair::RuleRepair& alg) {
  std::printf("\n--- (1) constraint game: estimate of Shap(C3) vs m "
              "(exact = 2/3) ---\n");
  std::printf("%8s %12s %12s %12s %10s\n", "m", "estimate", "abs_error",
              "std_error", "calls");
  auto box = BlackBoxRepair::Make(&alg, data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  if (!box.ok()) std::exit(1);
  ConstraintGame game(&*box);
  double last_error = 1.0;
  for (std::size_t m : {8u, 32u, 128u, 512u, 2048u, 8192u}) {
    shap::SamplingOptions options;
    options.num_samples = m;
    options.seed = 101;
    const std::size_t calls_before = box->num_algorithm_calls();
    auto estimate = shap::EstimateShapleyForPlayer(game, 2, options);
    if (!estimate.ok()) std::exit(1);
    last_error = std::fabs(estimate->value - 2.0 / 3.0);
    std::printf("%8zu %12.5f %12.5f %12.5f %10zu\n", m, estimate->value,
                last_error, estimate->std_error,
                box->num_algorithm_calls() - calls_before);
  }
  bench::Verdict(last_error < 0.02,
                 "estimator converges to the exact Shapley value "
                 "(error < 0.02 at m = 8192)");
}

void CellGameConvergence(const repair::RuleRepair& alg) {
  std::printf("\n--- (2) reduced cell game (12 players): max abs error vs "
              "m, null policy ---\n");
  // Players: the Country and League cells of all six tuples — the C3
  // machinery — 12 cells, 2^12 = 4096 coalitions for exact values.
  auto box = BlackBoxRepair::Make(&alg, data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  if (!box.ok()) std::exit(1);
  std::vector<CellRef> players;
  for (std::size_t row = 1; row <= 6; ++row) {
    players.push_back(data::SoccerCell(row, "Country"));
    players.push_back(data::SoccerCell(row, "League"));
  }
  CellGame game(&*box, players);

  shap::ExactShapleyOptions exact_options;
  exact_options.max_players = 12;
  std::vector<double> exact;
  const double exact_seconds = bench::TimeSeconds([&] {
    auto result = shap::ComputeExactShapley(game, exact_options);
    if (!result.ok()) std::exit(1);
    exact = std::move(result).value();
  });
  std::printf("exact ground truth: 4096 coalition evaluations in %.3fs\n",
              exact_seconds);

  std::printf("%8s %14s %12s %10s\n", "m", "max_abs_error", "mean_stderr",
              "seconds");
  double last_error = 1.0;
  for (std::size_t m : {4u, 16u, 64u, 256u, 1024u}) {
    shap::SamplingOptions options;
    options.num_samples = m;
    options.seed = 202;
    std::vector<shap::Estimate> estimates;
    const double seconds = bench::TimeSeconds([&] {
      auto result = shap::EstimateShapleyAllPlayers(game, options);
      if (!result.ok()) std::exit(1);
      estimates = std::move(result).value();
    });
    double max_error = 0;
    double stderr_sum = 0;
    for (std::size_t i = 0; i < estimates.size(); ++i) {
      max_error = std::max(max_error,
                           std::fabs(estimates[i].value - exact[i]));
      stderr_sum += estimates[i].std_error;
    }
    last_error = max_error;
    std::printf("%8zu %14.5f %12.5f %10.3f\n", m, max_error,
                stderr_sum / estimates.size(), seconds);
  }
  bench::Verdict(last_error < 0.05,
                 "cell-game estimates converge to exact values "
                 "(max error < 0.05 at m = 1024)");
}

void SingleCellLoop(std::shared_ptr<const repair::RuleRepair> alg) {
  std::printf("\n--- (3) Example 2.5 single-cell loop: "
              "Shap(t5[City]) for target t5[Country] ---\n");
  std::printf("%8s %12s %12s\n", "m", "estimate", "std_error");
  for (std::size_t m : {50u, 200u, 800u}) {
    ExplainRequest request;
    request.target = data::SoccerTargetCell();
    request.kind = ExplainKind::kSingleCell;
    request.single_cell = data::SoccerCell(5, "City");
    request.cells.num_samples = m;
    request.cells.seed = 303;
    request.cells.policy = AbsentCellPolicy::kSampleFromColumn;
    Engine engine(alg, data::SoccerConstraints(), data::SoccerDirtyTable());
    auto result = engine.Explain(request);
    if (!result.ok()) std::exit(1);
    std::printf("%8zu %12.5f %12.5f\n", m, result->single_cell->shapley,
                result->single_cell->std_error);
  }
  bench::Verdict(true, "Example 2.5 loop runs (2 black-box calls/sample)");
}

/// Latency-padded synthetic game for the anytime scenario: every
/// characteristic-function call sleeps a fixed pad — modelling the
/// black-box repair cost — so wave parallelism shows up as wall-clock
/// even on a single-core host (sleeps overlap; compute would not). The
/// value mixes per-player weights with a mask-keyed pseudo-noise term,
/// giving every player's marginals real variance to bound.
class PaddedNoisyGame : public shap::Game {
 public:
  PaddedNoisyGame(std::size_t n, std::chrono::microseconds pad)
      : n_(n), pad_(pad) {}
  std::size_t num_players() const override { return n_; }
  double Value(const shap::Coalition& coalition) const override {
    // Models repair-call latency; the bench times it on purpose.
    if (pad_.count() > 0) std::this_thread::sleep_for(pad_);
    std::uint64_t mask = 0;
    double v = 0.0;
    for (std::size_t i = 0; i < coalition.size(); ++i) {
      if (coalition[i]) {
        mask |= std::uint64_t{1} << i;
        v += 0.1 * static_cast<double>(i + 1);
      }
    }
    // Deterministic mask-keyed noise: marginals jump by ±0.5 depending
    // on the coalition, so every player needs real samples to converge.
    std::uint64_t h = mask * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    if (h & 1) v += 0.5;
    return v;
  }

 private:
  std::size_t n_;
  std::chrono::microseconds pad_;
};

/// Order-sensitive digest of the estimate vector's exact bit patterns —
/// equal checksums mean bit-identical values, errors, and counts.
std::uint64_t EstimateChecksum(const std::vector<shap::Estimate>& estimates) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto fold = [&h](std::uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const shap::Estimate& e : estimates) {
    fold(std::bit_cast<std::uint64_t>(e.value));
    fold(std::bit_cast<std::uint64_t>(e.std_error));
    fold(e.num_samples);
  }
  return h;
}

void AnytimeScenario() {
  bench::Header("(4) anytime: parallel confidence-bounded early stopping");
  constexpr std::size_t kPlayers = 6;
  constexpr std::size_t kBudget = 1024;
  constexpr double kTarget = 0.07;
  constexpr std::chrono::microseconds kPad(200);

  shap::SamplingOptions base;
  base.num_samples = kBudget;
  base.seed = 77;
  base.shard_size = 32;
  base.check_interval = 256;  // 8 shards per wave
  base.stop.target_half_width = kTarget;

  struct Row {
    const char* mode;
    std::size_t threads;
    bool anytime;
  };
  const Row rows[] = {
      {"serial_earlystop", 1, true},
      {"fixed_parallel", 8, false},
      {"anytime_parallel", 8, true},
  };

  std::printf("%18s %8s %8s %10s %16s %18s\n", "mode", "threads", "sweeps",
              "wall_s", "achieved_hw", "checksum");
  double wall[3] = {0, 0, 0};
  shap::SweepOutcome outcomes[3];
  std::uint64_t checksums[3] = {0, 0, 0};
  for (int r = 0; r < 3; ++r) {
    const PaddedNoisyGame game(kPlayers, kPad);
    shap::SamplingOptions options = base;
    options.num_threads = rows[r].threads;
    if (!rows[r].anytime) options.stop = shap::StopRule{};  // fixed budget
    std::vector<shap::Estimate> estimates;
    wall[r] = bench::TimeSeconds([&] {
      auto result =
          shap::EstimateShapleyAllPlayers(game, options, &outcomes[r]);
      if (!result.ok()) std::exit(1);
      estimates = std::move(result).value();
    });
    checksums[r] = EstimateChecksum(estimates);
    std::printf("%18s %8zu %8zu %10.3f %16.5f %18llx\n", rows[r].mode,
                rows[r].threads, outcomes[r].sweeps, wall[r],
                outcomes[r].achieved_half_width,
                static_cast<unsigned long long>(checksums[r]));
    std::printf(
        "JSON {\"bench\":\"sampling\",\"scenario\":\"anytime\","
        "\"mode\":\"%s\",\"threads\":%zu,\"sweeps\":%zu,\"budget\":%zu,"
        "\"wall_seconds\":%.4f,\"achieved_half_width\":%.6f,"
        "\"target_half_width\":%.6f,\"early_stopped\":%s,"
        "\"checksum\":\"%016llx\"}\n",
        rows[r].mode, rows[r].threads, outcomes[r].sweeps, kBudget, wall[r],
        outcomes[r].achieved_half_width, rows[r].anytime ? kTarget : 0.0,
        outcomes[r].stopped_early ? "true" : "false",
        static_cast<unsigned long long>(checksums[r]));
  }

  bench::Verdict(outcomes[0].stopped_early && outcomes[0].sweeps < kBudget,
                 "the stopping rule fires before the fixed budget");
  bench::Verdict(outcomes[0].achieved_half_width <= kTarget &&
                     outcomes[2].achieved_half_width <= kTarget,
                 "achieved CI half-width meets the requested target");
  bench::Verdict(outcomes[0].sweeps == outcomes[2].sweeps &&
                     checksums[0] == checksums[2],
                 "anytime(8 threads) is bit-identical to serial early-stop "
                 "(same stopping wave, same estimates)");
  bench::Verdict(wall[2] < wall[0],
                 "anytime(8 threads) beats serial early-stop on wall-clock");
  bench::Verdict(wall[2] < wall[1],
                 "anytime(8 threads) beats the fixed-budget parallel run");
}

}  // namespace

int main(int argc, char** argv) {
  const bool anytime_only =
      argc > 1 && std::strcmp(argv[1], "--anytime_only") == 0;
  bench::Header("Example 2.5 / §2.3: sampling estimator convergence");
  if (!anytime_only) {
    auto alg = repair::MakeAlgorithm1();
    ConstraintGameConvergence(*alg);
    CellGameConvergence(*alg);
    SingleCellLoop(alg);
  }
  AnytimeScenario();
  return 0;
}
