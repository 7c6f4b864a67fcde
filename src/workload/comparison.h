// Cross-backend comparison harness over a synthetic ground-truth world.
//
// T-REx is agnostic to the repair approach (paper §1), but repair
// *semantics* differ materially across backends (cf. Bertossi & Schwind,
// "Database Repairs and Analytic Tableaux"): the same dirty table yields
// different repairs, and therefore different explanations. This harness
// makes that comparable at scale:
//
//   1. generate a clean world of `world.num_rows` rows (data/generator.h)
//      and inject seeded errors with recorded ground truth (data/errors.h);
//   2. for every registered backend (fd_repair, rule_repair, holistic,
//      holoclean) build one `Engine` over the same shared dirty table and
//      explain every target on it with one `Engine::Explain` each —
//      constraint explanations of the injected error cells, amortized
//      over the shared subset memo;
//   3. score each backend's reference repair against the injected ground
//      truth (repair/metrics.h) and each backend's explanations against
//      every other backend's via rank-correlation stability metrics
//      (core/compare.h).
//
// `bench_scalability` sweeps `RunComparison` over world sizes and emits
// one JSON line per (backend, size); tests pin the harness on a small
// world. Determinism: everything is a pure function of
// `ComparisonOptions` (seeded generator + injector, deterministic
// backends, exact constraint Shapley).

#ifndef TREX_WORKLOAD_COMPARISON_H_
#define TREX_WORKLOAD_COMPARISON_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/compare.h"
#include "core/engine.h"
#include "data/errors.h"
#include "data/generator.h"
#include "repair/algorithm.h"
#include "repair/metrics.h"

namespace trex::workload {

/// One comparable repair backend.
struct BackendEntry {
  /// Stable identifier used in reports and JSON ("fd_repair", ...).
  std::string name;
  std::shared_ptr<const repair::RepairAlgorithm> algorithm;
};

/// Every bundled repair backend, in fixed comparison order:
/// fd_repair, rule_repair (the paper's Algorithm 1), holistic, holoclean.
std::vector<BackendEntry> RegisteredBackends();

/// Harness knobs.
struct ComparisonOptions {
  /// The synthetic world (world.num_rows is the size knob of the sweep).
  data::SoccerGenOptions world;
  /// Error injection. Defaults restrict corruption to the City/Country
  /// columns — the FD-repairable attributes of the Figure 1 constraint
  /// set — so every backend has detectable work; callers may widen it.
  data::ErrorInjectorOptions errors;
  /// Injected error cells explained per backend (capped to the number
  /// actually injected). Targets are shared across backends so the
  /// stability metrics compare like with like.
  std::size_t num_targets = 4;
  /// Top-k bound for the Jaccard stability term.
  std::size_t top_k = 3;
  /// Engine configuration (thread count, anytime defaults).
  EngineOptions engine;

  ComparisonOptions();
};

/// One backend's run over the shared dirty world.
struct BackendRun {
  std::string backend;
  /// Non-empty when the reference repair itself failed; the remaining
  /// fields are then meaningless.
  std::string error;
  /// Reference repair scored against the injected ground truth.
  repair::RepairQuality quality;
  /// Wall-clock of the reference repair (EnsureRepair).
  double repair_seconds = 0.0;
  /// Wall-clock of the `Explain` calls over all targets.
  double explain_seconds = 0.0;
  /// Black-box repair invocations of the backend's engine (reference run
  /// included).
  std::size_t algorithm_calls = 0;
  /// Memo hits amortized across targets on the backend's engine.
  std::size_t cross_request_hits = 0;
  /// Estimated resident memo bytes after the last target — the memo
  /// footprint in the perf trajectory.
  std::size_t approx_memo_bytes = 0;
  /// Targets this backend explained / could not explain (a backend that
  /// did not repair a target cannot explain it — that asymmetry is part
  /// of the comparison).
  std::size_t explained_targets = 0;
  std::size_t failed_targets = 0;
  /// Slot-per-target explanations (nullopt for failed slots).
  std::vector<std::optional<Explanation>> explanations;
};

/// Mean pairwise explanation agreement of one backend against all other
/// backends, over the targets both explained.
struct StabilityScore {
  /// (other backend, target) pairs that entered the means.
  std::size_t compared = 0;
  double mean_kendall_tau = 0.0;
  double mean_spearman_rho = 0.0;
  double mean_topk_jaccard = 0.0;
  double mean_abs_shift = 0.0;
};

/// The harness output: one run + one stability score per backend
/// (parallel vectors, `RegisteredBackends` order).
struct ComparisonReport {
  std::size_t num_rows = 0;
  std::size_t num_errors = 0;
  std::size_t num_targets = 0;
  std::vector<BackendRun> backends;
  std::vector<StabilityScore> stability;
};

/// Runs the full harness (see file comment). Fails only on setup errors
/// (e.g. no errors injected); per-backend repair failures are recorded
/// in `BackendRun::error` instead of failing the comparison.
[[nodiscard]] Result<ComparisonReport> RunComparison(const ComparisonOptions& options);

/// Serializes one backend's row of the report as a single-line JSON
/// object (repair quality + stability + cost), the machine-readable
/// format the benches emit with a "JSON " prefix. `backend_index` must
/// be < report.backends.size().
std::string BackendJsonLine(const ComparisonReport& report,
                            std::size_t backend_index);

}  // namespace trex::workload

#endif  // TREX_WORKLOAD_COMPARISON_H_
