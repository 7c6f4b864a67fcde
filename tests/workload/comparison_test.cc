#include "workload/comparison.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace trex::workload {
namespace {

/// One small, shared harness configuration: 80 rows keeps every backend
/// (holoclean included) in unit-test time.
ComparisonOptions SmokeOptions() {
  ComparisonOptions options;
  options.world.num_rows = 80;
  options.world.seed = 301;
  options.errors.seed = 302;
  options.num_targets = 3;
  return options;
}

TEST(RegisteredBackendsTest, TheFourBundledRepairers) {
  const auto backends = RegisteredBackends();
  ASSERT_EQ(backends.size(), 4u);
  EXPECT_EQ(backends[0].name, "fd_repair");
  EXPECT_EQ(backends[1].name, "rule_repair");
  EXPECT_EQ(backends[2].name, "holistic");
  EXPECT_EQ(backends[3].name, "holoclean");
  for (const BackendEntry& entry : backends) {
    ASSERT_NE(entry.algorithm, nullptr) << entry.name;
  }
}

TEST(ComparisonTest, RunsEveryBackendOverTheSharedWorld) {
  auto report = RunComparison(SmokeOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_rows, 80u);
  EXPECT_GT(report->num_errors, 0u);
  EXPECT_EQ(report->num_targets, 3u);
  ASSERT_EQ(report->backends.size(), 4u);
  ASSERT_EQ(report->stability.size(), 4u);
  for (const BackendRun& run : report->backends) {
    EXPECT_TRUE(run.error.empty()) << run.backend << ": " << run.error;
    // Repair quality was scored against ground truth.
    EXPECT_GT(run.quality.true_errors, 0u) << run.backend;
    // Every target got a slot: explained or recorded as unexplainable.
    EXPECT_EQ(run.explanations.size(), report->num_targets) << run.backend;
    EXPECT_EQ(run.explained_targets + run.failed_targets,
              report->num_targets)
        << run.backend;
    // At least the reference repair ran.
    EXPECT_GE(run.algorithm_calls, 1u) << run.backend;
  }
}

TEST(ComparisonTest, ExplanationsRankTheFourConstraints) {
  auto report = RunComparison(SmokeOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  bool saw_explanation = false;
  for (const BackendRun& run : report->backends) {
    for (const auto& explanation : run.explanations) {
      if (!explanation.has_value()) continue;
      saw_explanation = true;
      // Constraint explanations over the Figure 1 set: 4 players.
      EXPECT_EQ(explanation->ranked.size(), 4u) << run.backend;
    }
  }
  EXPECT_TRUE(saw_explanation);
}

TEST(ComparisonTest, StabilityComparesBackendPairs) {
  auto report = RunComparison(SmokeOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // At least two backends explain shared targets on this world, so the
  // pairwise stability means are populated and bounded.
  std::size_t scored = 0;
  for (const StabilityScore& score : report->stability) {
    if (score.compared == 0) continue;
    ++scored;
    EXPECT_GE(score.mean_kendall_tau, -1.0);
    EXPECT_LE(score.mean_kendall_tau, 1.0);
    EXPECT_GE(score.mean_spearman_rho, -1.0);
    EXPECT_LE(score.mean_spearman_rho, 1.0);
    EXPECT_GE(score.mean_topk_jaccard, 0.0);
    EXPECT_LE(score.mean_topk_jaccard, 1.0);
    EXPECT_GE(score.mean_abs_shift, 0.0);
  }
  EXPECT_GE(scored, 2u);
}

TEST(ComparisonTest, DeterministicForSeed) {
  auto a = RunComparison(SmokeOptions());
  auto b = RunComparison(SmokeOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->backends.size(), b->backends.size());
  for (std::size_t i = 0; i < a->backends.size(); ++i) {
    const BackendRun& ra = a->backends[i];
    const BackendRun& rb = b->backends[i];
    EXPECT_EQ(ra.quality.cells_changed, rb.quality.cells_changed);
    EXPECT_EQ(ra.quality.errors_fixed, rb.quality.errors_fixed);
    EXPECT_EQ(ra.explained_targets, rb.explained_targets);
    ASSERT_EQ(ra.explanations.size(), rb.explanations.size());
    for (std::size_t t = 0; t < ra.explanations.size(); ++t) {
      ASSERT_EQ(ra.explanations[t].has_value(),
                rb.explanations[t].has_value());
      if (!ra.explanations[t].has_value()) continue;
      const auto& ea = ra.explanations[t]->ranked;
      const auto& eb = rb.explanations[t]->ranked;
      ASSERT_EQ(ea.size(), eb.size());
      for (std::size_t p = 0; p < ea.size(); ++p) {
        EXPECT_EQ(ea[p].label, eb[p].label);
        EXPECT_EQ(ea[p].shapley, eb[p].shapley);
      }
    }
    EXPECT_EQ(a->stability[i].compared, b->stability[i].compared);
    EXPECT_EQ(a->stability[i].mean_kendall_tau,
              b->stability[i].mean_kendall_tau);
  }
}

TEST(ComparisonTest, JsonLinesCarryTheReport) {
  auto report = RunComparison(SmokeOptions());
  ASSERT_TRUE(report.ok());
  for (std::size_t i = 0; i < report->backends.size(); ++i) {
    const std::string line = BackendJsonLine(*report, i);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("\"backend\":\"" + report->backends[i].backend +
                        "\""),
              std::string::npos);
    EXPECT_NE(line.find("\"rows\":80"), std::string::npos);
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(line.find("\"mean_kendall_tau\":"), std::string::npos);
    EXPECT_NE(line.find("\"approx_memo_bytes\":"), std::string::npos);
  }
}

TEST(ComparisonTest, NoInjectedErrorsFailsLoudly) {
  ComparisonOptions options = SmokeOptions();
  options.errors.error_rate = 0.0;
  auto report = RunComparison(options);
  EXPECT_FALSE(report.ok());
}

TEST(ComparisonTest, ZeroTargetsRejected) {
  ComparisonOptions options = SmokeOptions();
  options.num_targets = 0;
  EXPECT_FALSE(RunComparison(options).ok());
}

}  // namespace
}  // namespace trex::workload
