// Constraint and cell explainers: given a repaired cell of interest,
// rank the denial constraints / the table cells by their Shapley
// contribution to that repair (the paper's §2.2–§2.3).
//
// Both classes are thin adapters over `trex::Engine` (core/engine.h) —
// each call spins up a single-use engine. Multi-query callers should use
// the engine directly to share the reference repair and memo caches;
// the engine is also where anytime options live, top-k early stopping
// included (`ExplainKind::kCells` with `AnytimeOptions::top_k`).
//
//  * `ConstraintExplainer` computes *exact* Shapley values by subset
//    enumeration by default ("the number of DCs is usually small") and
//    falls back to permutation sampling past a configurable player cap.
//  * `CellExplainer` ranks cells with the Strumbelj–Kononenko permutation
//    sampler (Example 2.5), replacing out-of-coalition cells either with
//    nulls (`AbsentCellPolicy::kNull`, the paper's *definition*) or with
//    draws from their column distribution
//    (`AbsentCellPolicy::kSampleFromColumn`, the paper's *estimator*).
//    Exact cell Shapley is available for small player sets (tests,
//    convergence baselines). Relevant-cell pruning via the algorithm's
//    influence graph (or the conservative DC graph) shrinks the player
//    set before sampling.

#ifndef TREX_CORE_EXPLAINER_H_
#define TREX_CORE_EXPLAINER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/repair_game.h"
#include "core/shapley_exact.h"
#include "core/shapley_sampling.h"

namespace trex {

/// How absent cells are materialized in cell coalitions.
enum class AbsentCellPolicy {
  /// Set to null (the paper's formal definition, §2.2).
  kNull,
  /// Replace with a draw from the cell's column distribution in T^d
  /// (the paper's sampling estimator, Example 2.5).
  kSampleFromColumn,
};

const char* AbsentCellPolicyToString(AbsentCellPolicy policy);

/// One ranked player (a DC or a cell) in an explanation.
struct PlayerScore {
  /// Display label: the constraint name ("C3") or the paper-style cell
  /// name ("t5[League]").
  std::string label;
  double shapley = 0.0;
  /// Standard error (0 for exact computations).
  double std_error = 0.0;
  std::size_t num_samples = 0;
  /// Set for cell explanations.
  std::optional<CellRef> cell;
  /// Set for constraint explanations.
  std::optional<std::size_t> constraint_index;
};

/// The result of explaining one repaired cell.
struct Explanation {
  /// Players ranked by Shapley value, descending (ties keep player
  /// order, so output is deterministic).
  std::vector<PlayerScore> ranked;
  /// The explained cell and its repair.
  CellRef target;
  std::string target_label;
  Value old_value;
  Value new_value;
  /// Cost accounting: black-box repair invocations / memo hits.
  std::size_t algorithm_calls = 0;
  std::size_t cache_hits = 0;
  /// "exact" or "sampling(...)": how the values were computed.
  std::string method;

  /// The top-k players (k clamped to size).
  std::vector<PlayerScore> TopK(std::size_t k) const;

  /// Sum of all Shapley values (= v(N) − v(∅) for exact computations —
  /// the efficiency axiom; ≈ for sampled ones).
  double TotalAttribution() const;
};

/// Options for `ConstraintExplainer`.
struct ConstraintExplainerOptions {
  /// Use exact enumeration up to this many constraints, sampling beyond.
  std::size_t max_exact_players = 20;
  /// Force the sampling path regardless of size (testing/ablation).
  bool force_sampling = false;
  /// Attribute with Banzhaf values instead of Shapley (exact path only;
  /// Banzhaf weighs every coalition equally and drops the efficiency
  /// axiom — a common comparison point for attribution semantics).
  bool use_banzhaf = false;
  /// Sampling parameters (used only on the sampling path). The engine
  /// reads `num_samples`, `seed`, `antithetic` and `shard_size`. It sets
  /// the stop rule and check interval from `ExplainRequest::anytime` and
  /// `soften`, the threads and pool from the engine, and the cancel
  /// token from `ExplainRequest::cancel`; those fields here are ignored.
  shap::SamplingOptions sampling;
};

/// One constraint pair's interaction in an explanation (see
/// core/interaction.h; positive = the pair acts as a complement, like
/// the paper's C1 & C2).
struct InteractionScore {
  std::string label_a;
  std::string label_b;
  double interaction = 0.0;
};

/// Ranks denial constraints by their contribution to a repair.
class ConstraintExplainer {
 public:
  explicit ConstraintExplainer(ConstraintExplainerOptions options = {})
      : options_(options) {}

  /// Explains why `target` was repaired, attributing over `dcs`.
  /// Fails when the reference repair does not change `target`.
  [[nodiscard]] Result<Explanation> Explain(const repair::RepairAlgorithm& algorithm,
                              const dc::DcSet& dcs, const Table& dirty,
                              CellRef target) const;

  /// Pairwise Shapley interaction indices between the constraints,
  /// ranked by |interaction| descending. Formalizes the paper's
  /// Example 2.3 "as a pair" reading: for the running example,
  /// I(C1,C2) > 0 (complements) and I(C1,C3) < 0 (substitutes). Exact
  /// only (constraint counts are small).
  [[nodiscard]] Result<std::vector<InteractionScore>> ExplainInteractions(
      const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
      const Table& dirty, CellRef target) const;

  /// Counterfactual view: the inclusion-minimal constraint sets whose
  /// removal stops the repair of `target` (constraint names, smallest
  /// sets first). For the running example: {C1,C3} and {C2,C3}.
  /// `max_set_size` bounds the search.
  [[nodiscard]] Result<std::vector<std::vector<std::string>>> ExplainRemovalSets(
      const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
      const Table& dirty, CellRef target,
      std::size_t max_set_size = 3) const;

 private:
  ConstraintExplainerOptions options_;
};

/// Computation method for cell explanations.
enum class CellMethod {
  /// Exact when the (pruned) player set is small and the policy is
  /// kNull; sampling otherwise.
  kAuto,
  kExact,
  kSampling,
};

/// Options for `CellExplainer`.
struct CellExplainerOptions {
  CellMethod method = CellMethod::kAuto;
  AbsentCellPolicy policy = AbsentCellPolicy::kSampleFromColumn;
  /// Permutation sweeps for the all-cells ranking; each sweep costs
  /// (#players + 1) black-box evaluations.
  std::size_t num_samples = 300;
  std::uint64_t seed = Rng::kDefaultSeed;
  /// Restrict players to cells that can influence the target under the
  /// algorithm's influence graph (falls back to the conservative DC
  /// graph when the algorithm exposes none). Cells outside the player
  /// set are reported with Shapley 0.
  bool prune = true;
  /// Exact-path player cap (2^n coalition values are materialized).
  std::size_t max_exact_players = 20;
  /// Include players whose column cannot be sampled (all-null columns
  /// keep nulls under kSampleFromColumn).
  bool include_target_cell = true;
};

/// Ranks table cells by their contribution to a repair.
class CellExplainer {
 public:
  explicit CellExplainer(CellExplainerOptions options = {})
      : options_(options) {}

  /// Ranks every (relevant) cell of T^d by Shapley contribution to the
  /// repair of `target`. Fails when the reference repair does not change
  /// `target`.
  [[nodiscard]] Result<Explanation> Explain(const repair::RepairAlgorithm& algorithm,
                              const dc::DcSet& dcs, const Table& dirty,
                              CellRef target) const;

  /// The paper's Example 2.5 single-cell loop: estimates only
  /// `player_cell`'s contribution with `num_samples` (permutation, draw)
  /// iterations — two black-box evaluations each.
  [[nodiscard]] Result<PlayerScore> ExplainSingleCell(
      const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
      const Table& dirty, CellRef target, CellRef player_cell) const;

 private:
  CellExplainerOptions options_;
};

}  // namespace trex

#endif  // TREX_CORE_EXPLAINER_H_
