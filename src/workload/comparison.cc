#include "workload/comparison.h"

#include <chrono>
#include <utility>

#include "common/string_util.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"

namespace trex::workload {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ComparisonOptions::ComparisonOptions() {
  errors.error_rate = 0.04;
  const Schema schema = data::SoccerSchema();
  // The FD-repairable attributes of the Figure 1 constraint set: every
  // backend has detectable, fixable work there.
  errors.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
}

std::vector<BackendEntry> RegisteredBackends() {
  std::vector<BackendEntry> backends;
  backends.push_back(
      {"fd_repair", std::make_shared<repair::FdRepair>()});
  backends.push_back({"rule_repair", repair::MakeAlgorithm1()});
  backends.push_back(
      {"holistic", std::make_shared<repair::HolisticRepair>()});
  backends.push_back(
      {"holoclean", std::make_shared<repair::HoloCleanRepair>()});
  return backends;
}

Result<ComparisonReport> RunComparison(const ComparisonOptions& options) {
  if (options.num_targets == 0) {
    return Status::InvalidArgument("num_targets must be positive");
  }
  data::GeneratedData generated = data::GenerateSoccer(options.world);
  data::InjectionResult injected =
      data::InjectErrors(generated.clean, options.errors);
  if (injected.injected.empty()) {
    return Status::InvalidArgument(
        "error injection produced no corrupted cells; raise error_rate "
        "or widen the column set");
  }

  // Targets: the first injected error cells, shared by every backend so
  // the stability metrics compare explanations of the same repairs.
  std::vector<CellRef> targets;
  for (const RepairedCell& error : injected.injected) {
    if (targets.size() >= options.num_targets) break;
    targets.push_back(error.cell);
  }

  const auto dirty = std::make_shared<const Table>(std::move(injected.dirty));

  ComparisonReport report;
  report.num_rows = generated.clean.num_rows();
  report.num_errors = injected.injected.size();
  report.num_targets = targets.size();

  for (const BackendEntry& entry : RegisteredBackends()) {
    BackendRun run;
    run.backend = entry.name;
    run.explanations.assign(targets.size(), std::nullopt);
    Engine engine(entry.algorithm, generated.dcs, dirty, options.engine);

    const auto repair_start = std::chrono::steady_clock::now();
    const Status repair_status = engine.EnsureRepair();
    run.repair_seconds = SecondsSince(repair_start);
    if (!repair_status.ok()) {
      run.error = repair_status.ToString();
      report.backends.push_back(std::move(run));
      continue;
    }
    auto quality = repair::EvaluateRepair(*dirty, engine.reference_clean(),
                                          generated.clean, generated.dcs);
    if (!quality.ok()) {
      run.error = quality.status().ToString();
      report.backends.push_back(std::move(run));
      continue;
    }
    run.quality = *quality;

    // One engine serves every target, so later targets reuse the subset
    // repairs earlier ones paid for.
    const auto explain_start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ExplainRequest request;
      request.target = targets[t];
      request.kind = ExplainKind::kConstraints;
      Result<ExplainResult> result = engine.Explain(request);
      if (result.ok() && result->explanation.has_value()) {
        ++run.explained_targets;
        run.explanations[t] = std::move(*result->explanation);
      } else {
        // A backend that did not repair this cell cannot explain it —
        // that asymmetry is itself a comparison signal, not a harness
        // failure.
        ++run.failed_targets;
      }
    }
    run.explain_seconds = SecondsSince(explain_start);
    run.algorithm_calls = engine.num_algorithm_calls();
    run.cross_request_hits = engine.num_cross_request_hits();
    run.approx_memo_bytes = engine.approx_memo_bytes();
    report.backends.push_back(std::move(run));
  }

  // Pairwise stability: for every backend pair and every target both
  // explained, compare the two explanations and fold the metrics into
  // both backends' means.
  report.stability.assign(report.backends.size(), StabilityScore{});
  for (std::size_t a = 0; a < report.backends.size(); ++a) {
    for (std::size_t b = a + 1; b < report.backends.size(); ++b) {
      for (std::size_t t = 0; t < targets.size(); ++t) {
        const auto& ex_a = report.backends[a].explanations[t];
        const auto& ex_b = report.backends[b].explanations[t];
        if (!ex_a.has_value() || !ex_b.has_value()) continue;
        auto cmp = CompareExplanations(*ex_a, *ex_b, options.top_k);
        if (!cmp.ok()) continue;
        for (std::size_t side : {a, b}) {
          StabilityScore& score = report.stability[side];
          ++score.compared;
          score.mean_kendall_tau += cmp->kendall_tau;
          score.mean_spearman_rho += cmp->spearman_rho;
          score.mean_topk_jaccard += cmp->topk_jaccard;
          score.mean_abs_shift += cmp->mean_abs_shift;
        }
      }
    }
  }
  for (StabilityScore& score : report.stability) {
    if (score.compared == 0) continue;
    const double denom = static_cast<double>(score.compared);
    score.mean_kendall_tau /= denom;
    score.mean_spearman_rho /= denom;
    score.mean_topk_jaccard /= denom;
    score.mean_abs_shift /= denom;
  }
  return report;
}

std::string BackendJsonLine(const ComparisonReport& report,
                            std::size_t backend_index) {
  const BackendRun& run = report.backends.at(backend_index);
  const StabilityScore& stability = report.stability.at(backend_index);
  std::string line = StrFormat(
      "{\"bench\":\"cross_backend\",\"backend\":\"%s\",\"rows\":%zu,"
      "\"errors\":%zu,\"targets\":%zu,\"ok\":%s",
      JsonEscape(run.backend).c_str(), report.num_rows, report.num_errors,
      report.num_targets, run.error.empty() ? "true" : "false");
  if (!run.error.empty()) {
    line += StrFormat(",\"error\":\"%s\"}", JsonEscape(run.error).c_str());
    return line;
  }
  line += StrFormat(
      ",\"precision\":%.4f,\"recall\":%.4f,\"f1\":%.4f,"
      "\"cells_changed\":%zu,\"correct_changes\":%zu,\"true_errors\":%zu,"
      "\"errors_fixed\":%zu,\"residual_violations\":%zu,"
      "\"repair_seconds\":%.4f,\"explain_seconds\":%.4f,"
      "\"algorithm_calls\":%zu,\"cross_request_hits\":%zu,"
      "\"approx_memo_bytes\":%zu,"
      "\"explained_targets\":%zu,\"failed_targets\":%zu,"
      "\"stability_pairs\":%zu,\"mean_kendall_tau\":%.4f,"
      "\"mean_spearman_rho\":%.4f,\"mean_topk_jaccard\":%.4f,"
      "\"mean_abs_shift\":%.6f}",
      run.quality.precision, run.quality.recall, run.quality.f1,
      run.quality.cells_changed, run.quality.correct_changes,
      run.quality.true_errors, run.quality.errors_fixed,
      run.quality.residual_violations, run.repair_seconds,
      run.explain_seconds, run.algorithm_calls, run.cross_request_hits,
      run.approx_memo_bytes,
      run.explained_targets, run.failed_targets, stability.compared,
      stability.mean_kendall_tau, stability.mean_spearman_rho,
      stability.mean_topk_jaccard, stability.mean_abs_shift);
  return line;
}

}  // namespace trex::workload
