// Comparing explanations across iterations of the repair-explain-edit
// loop (paper §3/§4: the user edits DCs or data and re-explains —
// these metrics quantify how much the story changed).

#ifndef TREX_CORE_COMPARE_H_
#define TREX_CORE_COMPARE_H_

#include <cstddef>

#include "common/status.h"
#include "core/engine.h"

namespace trex {

/// Similarity/stability metrics between two explanations of (possibly)
/// the same target.
struct ExplanationComparison {
  /// Kendall tau-b rank correlation over the common players
  /// (1 = identical order, -1 = reversed, 0 = unrelated), with the
  /// standard tie correction: n0 = n(n-1)/2, jointly-tied pairs counted
  /// in both tie terms. 0 when either side is entirely tied.
  double kendall_tau = 0.0;
  /// Spearman rank correlation over the common players, computed as the
  /// Pearson correlation of average (fractional) ranks so tied Shapley
  /// values share one rank. 0 when either side is entirely tied.
  double spearman_rho = 0.0;
  /// Jaccard similarity of the top-k player sets.
  double topk_jaccard = 0.0;
  /// Mean |Δ shapley| over the common players.
  double mean_abs_shift = 0.0;
  /// Players present in both explanations.
  std::size_t common_players = 0;
};

/// Compares two explanations by player label. `top_k` bounds the
/// top-k Jaccard term (default 3). Fails when the explanations share
/// fewer than two players.
[[nodiscard]] Result<ExplanationComparison> CompareExplanations(
    const Explanation& before, const Explanation& after,
    std::size_t top_k = 3);

}  // namespace trex

#endif  // TREX_CORE_COMPARE_H_
