// `RuleRepair`: the paper's "Algorithm 1" family of rule-based repairers.
//
// Each rule binds to a constraint *by name* and fires, in rule order, for
// every tuple that currently participates in a violation of that
// constraint; the rule then rewrites one attribute of that tuple from the
// table's empirical statistics:
//
//   kSetMostCommon        t[A] := argmax_v P[A = v]
//   kSetMostCommonGiven   t[A] := argmax_v P[A = v | B = t[B]]
//
// Rules whose constraint is absent from the supplied DC set are skipped —
// this is what makes `RuleRepair` a meaningful black box for the
// *constraint* Shapley game: dropping C2 from the input disables step 2
// exactly as in the paper's Example 2.3.
//
// Statistics are computed over the *current* (partially repaired) table,
// and rows are visited in ascending index, so step 2 sees step 1's writes
// (Example 1.1: "C1 caused the change of 'Capital' to 'Madrid' first and
// then C2 caused the change of the value in the Country cell").
//
// There is one rule loop, in the session (`OpenSession`): `Repair` copies
// its input, opens a session on the copy and repairs it in place. A rule
// builds its violation probe index and its statistics when it first runs.
// A one-shot repair drops them when the rule finishes; a session keeps
// them and maintains them under every later write, so the next
// coalition's repair starts from warm indices.

#ifndef TREX_REPAIR_RULE_REPAIR_H_
#define TREX_REPAIR_RULE_REPAIR_H_

#include <string>
#include <vector>

#include "repair/algorithm.h"

namespace trex::repair {

/// The repair action a rule applies to a violating tuple.
enum class RuleAction {
  /// t[target] := most common value of the target column.
  kSetMostCommon,
  /// t[target] := most common target value among rows sharing t[given].
  kSetMostCommonGiven,
};

/// One step of an Algorithm-1-style repairer.
struct RepairRule {
  /// Name of the constraint that triggers this rule (e.g. "C1").
  std::string constraint_name;
  RuleAction action = RuleAction::kSetMostCommon;
  /// Attribute to rewrite.
  std::string target_attribute;
  /// Conditioning attribute (kSetMostCommonGiven only).
  std::string given_attribute;
};

/// Options for `RuleRepair`.
struct RuleRepairOptions {
  /// Number of passes over the rule list. The paper's Algorithm 1 is a
  /// single pass; raise this to run the rule pipeline to a fixpoint
  /// (passes stop early once a full pass changes nothing).
  int max_passes = 1;
};

/// Deterministic rule-list repairer (see file comment).
class RuleRepair : public RepairAlgorithm {
 public:
  RuleRepair(std::string name, std::vector<RepairRule> rules,
             RuleRepairOptions options = {});

  std::string name() const override { return name_; }

  /// Copies `dirty`, opens a session on the copy and repairs it.
  [[nodiscard]] Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override;

  /// A session keeping each rule's probe index and mode counters across
  /// repairs (see file comment). Rules resolve against `table`'s schema;
  /// a resolution error surfaces from `RepairCodes`, as `Repair` would
  /// return it.
  std::unique_ptr<RepairSession> OpenSession(const dc::DcSet& dcs,
                                             Table* table) const override;

  /// Precise influence graph: each rule adds edges from its constraint's
  /// read columns (plus the conditioning column) to its target column.
  std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const override;

  const std::vector<RepairRule>& rules() const { return rules_; }

 private:
  std::string name_;
  std::vector<RepairRule> rules_;
  RuleRepairOptions options_;
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_RULE_REPAIR_H_
