// Experiment: Figure 1 — Shapley values of the denial constraints for the
// repair of t5[Country] (paper: C1 = 1/6, C2 = 1/6, C3 = 2/3, C4 = 0).
//
// Regenerates the figure with the paper's didactic Algorithm 1 (exact
// reproduction expected) and with the HoloClean-style repairer (the
// black box the demo actually wraps; values depend on the repairer, the
// ranking shape is what matters). Also prints the Example 2.3 subset
// table the figure is derived from.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/repair_game.h"
#include "serving/report.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "repair/holoclean.h"

namespace {

using namespace trex;  // NOLINT

/// Serves `request` about t5[Country] on a fresh engine over the
/// running example, or exits.
ExplainResult ExplainTarget(
    std::shared_ptr<const repair::RepairAlgorithm> alg,
    ExplainRequest request) {
  Engine engine(std::move(alg), data::SoccerConstraints(),
                data::SoccerDirtyTable());
  request.target = data::SoccerTargetCell();
  Result<ExplainResult> result = engine.Explain(request);
  if (!result.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::map<std::string, double> Explain(
    std::shared_ptr<const repair::RepairAlgorithm> alg, double* seconds,
    std::size_t* calls) {
  Explanation ex;
  *seconds = bench::TimeSeconds([&] {
    ex = *ExplainTarget(std::move(alg), {}).explanation;
  });
  *calls = ex.algorithm_calls;
  std::printf("%s", RenderRanking(ex).c_str());
  std::map<std::string, double> values;
  for (const PlayerScore& p : ex.ranked) values[p.label] = p.shapley;
  return values;
}

}  // namespace

int main() {
  bench::Header("Figure 1: constraint Shapley values for t5[Country]");

  std::printf("\n--- Algorithm 1 (paper's rule repairer) ---\n");
  double seconds = 0;
  std::size_t calls = 0;
  auto alg1 = repair::MakeAlgorithm1();
  const auto values = Explain(alg1, &seconds, &calls);
  std::printf("wall clock: %.4fs (%zu black-box repair calls)\n", seconds,
              calls);

  std::printf("\npaper vs measured:\n");
  std::printf("  %-4s %10s %10s\n", "DC", "paper", "measured");
  const std::map<std::string, double> paper{
      {"C1", 1.0 / 6.0}, {"C2", 1.0 / 6.0}, {"C3", 2.0 / 3.0}, {"C4", 0.0}};
  bool exact_match = true;
  for (const auto& [name, expected] : paper) {
    std::printf("  %-4s %10.4f %10.4f\n", name.c_str(), expected,
                values.at(name));
    if (std::fabs(values.at(name) - expected) > 1e-9) exact_match = false;
  }
  bench::Verdict(exact_match,
                 "Figure 1 values reproduced exactly (1/6, 1/6, 2/3, 0)");

  // Example 2.3's underlying subset table.
  std::printf("\n--- Example 2.3: Alg|t5[Country](S, T^d) per subset ---\n");
  auto box = BlackBoxRepair::Make(alg1.get(), data::SoccerConstraints(),
                                  data::SoccerDirtyTable(),
                                  data::SoccerTargetCell());
  if (!box.ok()) return 1;
  bool characteristic_ok = true;
  for (std::uint64_t mask = 0; mask < 16; ++mask) {
    std::string members;
    for (int i = 0; i < 4; ++i) {
      if (mask & (1u << i)) {
        if (!members.empty()) members += ",";
        members += "C" + std::to_string(i + 1);
      }
    }
    if (members.empty()) members = "{}";
    const bool outcome = box->EvalConstraintSubset(mask);
    const bool expected = ((mask & 0b11) == 0b11) || (mask & 0b100);
    if (outcome != expected) characteristic_ok = false;
    std::printf("  v({%s}) = %d\n", members.c_str(), outcome ? 1 : 0);
  }
  bench::Verdict(characteristic_ok,
                 "v(S) = 1 iff {C1,C2} ⊆ S or C3 ∈ S (Example 2.3)");

  // Pairwise interaction indices — the quantitative form of Example
  // 2.3's "contribution of C1 and C2, as a pair" discussion.
  std::printf("\n--- constraint-pair Shapley interactions ---\n");
  ExplainRequest interaction_request;
  interaction_request.kind = ExplainKind::kInteractions;
  const std::vector<InteractionScore> interactions =
      ExplainTarget(alg1, interaction_request).interactions;
  double i_c1c2 = 0;
  double i_c1c3 = 0;
  for (const InteractionScore& score : interactions) {
    std::printf("  I(%s, %s) = %+ .4f\n", score.label_a.c_str(),
                score.label_b.c_str(), score.interaction);
    if (score.label_a == "C1" && score.label_b == "C2") {
      i_c1c2 = score.interaction;
    }
    if (score.label_a == "C1" && score.label_b == "C3") {
      i_c1c3 = score.interaction;
    }
  }
  bench::Verdict(i_c1c2 > 0 && i_c1c3 < 0,
                 "C1,C2 are complements (the paper's 'pair'); C3 "
                 "substitutes for them");

  // Counterfactual reading: what must be removed to stop the repair.
  std::printf("\n--- minimal removal sets (counterfactual view) ---\n");
  ExplainRequest removal_request;
  removal_request.kind = ExplainKind::kRemovalSets;
  const std::vector<std::vector<std::string>> removal_sets =
      ExplainTarget(alg1, removal_request).removal_sets;
  for (const auto& removal : removal_sets) {
    std::string joined;
    for (const std::string& name : removal) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    std::printf("  remove {%s} -> t5[Country] stays España\n",
                joined.c_str());
  }
  bench::Verdict(
      removal_sets.size() == 2,
      "two minimal removal sets ({C1,C3}, {C2,C3}): C3 must go along "
      "with either half of the C1-C2 pipeline");

  // Banzhaf values for comparison (equal coalition weighting).
  std::printf("\n--- Banzhaf values (comparison attribution) ---\n");
  ExplainRequest banzhaf_request;
  banzhaf_request.constraints.use_banzhaf = true;
  const Explanation banzhaf =
      *ExplainTarget(alg1, banzhaf_request).explanation;
  std::printf("%s", RenderRanking(banzhaf).c_str());
  bench::Verdict(banzhaf.ranked[0].label == "C3",
                 "Banzhaf agrees on the ranking (values differ: 3/4 vs "
                 "2/3 for C3 — no efficiency axiom)");

  // The same explanation against the HoloClean-style black box.
  std::printf("\n--- HoloClean-style repairer (the demo's black box) ---\n");
  const auto hc_values = Explain(std::make_shared<repair::HoloCleanRepair>(),
                                 &seconds, &calls);
  std::printf("wall clock: %.4fs (%zu black-box repair calls)\n", seconds,
              calls);
  bench::Verdict(hc_values.at("C4") <= hc_values.at("C3"),
                 "C3 outranks the irrelevant C4 under HoloClean too");
  return 0;
}
