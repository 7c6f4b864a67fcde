#include "repair/rule_repair.h"

#include <map>
#include <optional>
#include <unordered_map>

#include "dc/row_index.h"
#include "dc/violation.h"
#include "table/stats.h"

namespace trex::repair {
namespace {

/// Value counts with the mode maintained under single-value updates —
/// the incremental form of `ColumnStats::MostCommon` (nulls excluded,
/// ties toward the smallest value). The mode is patched on increments
/// and lazily rescanned (ascending key order, strictly-greater count
/// wins — exactly `MostCommon`'s scan) when the current mode loses
/// weight, so a repair loop's writes cost O(1) amortized instead of an
/// O(n) stats rebuild each.
class ModeCounter {
 public:
  void Add(const Value& v) {
    if (v.is_null()) return;
    const std::size_t count = ++counts_[v];
    if (stale_) return;
    if (!mode_.has_value() || count > mode_count_ ||
        (count == mode_count_ && v < *mode_)) {
      mode_ = v;
      mode_count_ = count;
    }
  }

  void Remove(const Value& v) {
    if (v.is_null()) return;
    auto it = counts_.find(v);
    if (it == counts_.end()) return;  // never counted (defensive)
    if (--it->second == 0) counts_.erase(it);
    if (!stale_ && mode_.has_value() && v == *mode_) stale_ = true;
  }

  std::optional<Value> Mode() const {
    if (stale_) {
      mode_.reset();
      mode_count_ = 0;
      for (const auto& [value, count] : counts_) {  // ascending keys
        if (count > mode_count_) {
          mode_ = value;
          mode_count_ = count;
        }
      }
      stale_ = false;
    }
    return mode_;
  }

 private:
  std::map<Value, std::size_t> counts_;
  mutable std::optional<Value> mode_;
  mutable std::size_t mode_count_ = 0;
  mutable bool stale_ = false;
};

/// Incremental `JointStats::MostCommonGiven` over (cond, target)
/// columns: one `ModeCounter` per conditioning value, rows with a null
/// on either side excluded — matching `JointStats::Build`.
class ConditionalModeCounter {
 public:
  ConditionalModeCounter(const Table& table, std::size_t cond_col,
                         std::size_t target_col) {
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      Add(table.at(r, cond_col), table.at(r, target_col));
    }
  }

  void Add(const Value& cond, const Value& target) {
    if (cond.is_null() || target.is_null()) return;
    groups_[cond].Add(target);
  }

  void Remove(const Value& cond, const Value& target) {
    if (cond.is_null() || target.is_null()) return;
    auto it = groups_.find(cond);
    if (it != groups_.end()) it->second.Remove(target);
  }

  std::optional<Value> MostCommonGiven(const Value& cond) const {
    auto it = groups_.find(cond);
    if (it == groups_.end()) return std::nullopt;
    return it->second.Mode();
  }

 private:
  std::unordered_map<Value, ModeCounter, ValueHash> groups_;
};

ModeCounter BuildModeCounter(const Table& table, std::size_t col) {
  ModeCounter counter;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    counter.Add(table.at(r, col));
  }
  return counter;
}

}  // namespace

RuleRepair::RuleRepair(std::string name, std::vector<RepairRule> rules,
                       RuleRepairOptions options)
    : name_(std::move(name)), rules_(std::move(rules)), options_(options) {}

Result<Table> RuleRepair::Repair(const dc::DcSet& dcs,
                                 const Table& dirty) const {
  // Resolve rules against the supplied constraint set and schema. Rules
  // bound to constraints not present in `dcs` are silently skipped (that
  // is the semantics of running the algorithm "without" a constraint).
  struct ResolvedRule {
    std::size_t constraint_index;
    RuleAction action;
    std::size_t target_col;
    std::size_t given_col;  // valid only for kSetMostCommonGiven
  };
  std::vector<ResolvedRule> resolved;
  resolved.reserve(rules_.size());
  for (const RepairRule& rule : rules_) {
    auto constraint_index = dcs.IndexOf(rule.constraint_name);
    if (!constraint_index.ok()) continue;  // constraint dropped from input
    TREX_ASSIGN_OR_RETURN(std::size_t target_col,
                          dirty.ColumnIndex(rule.target_attribute));
    std::size_t given_col = 0;
    if (rule.action == RuleAction::kSetMostCommonGiven) {
      TREX_ASSIGN_OR_RETURN(given_col,
                            dirty.ColumnIndex(rule.given_attribute));
    }
    resolved.push_back(ResolvedRule{*constraint_index, rule.action,
                                    target_col, given_col});
  }

  Table table = dirty;
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    bool changed = false;
    for (const ResolvedRule& rule : resolved) {
      const dc::DenialConstraint& constraint = dcs.at(rule.constraint_index);
      // Bucketed per-row violation probe over the mutating table — O(1)
      // per row for the counted shape, O(bucket) otherwise, instead of
      // dc::RowViolates' full scan. Writes below only touch the rule's
      // target column; the row is re-keyed when the index indexes that
      // column (a join-key column or the counted `!=` column).
      dc::ConstraintRowIndex row_index(&table, &constraint);
      // The paper's semantics: statistics reflect the *current*
      // (partially repaired) table. The incremental counters below are
      // updated on every write, so each query sees exactly what a fresh
      // ColumnStats/JointStats build over the current table would. A
      // rule conditioning on its own target column would invalidate its
      // conditioning groups on write, so that (unusual) shape keeps the
      // build-per-query path.
      const bool self_conditioned =
          rule.action == RuleAction::kSetMostCommonGiven &&
          rule.given_col == rule.target_col;
      std::optional<ModeCounter> column_mode;
      std::optional<ConditionalModeCounter> joint_mode;
      if (rule.action == RuleAction::kSetMostCommon) {
        column_mode = BuildModeCounter(table, rule.target_col);
      } else if (!self_conditioned) {
        joint_mode.emplace(table, rule.given_col, rule.target_col);
      }
      for (std::size_t row = 0; row < table.num_rows(); ++row) {
        if (!row_index.RowViolates(row)) continue;
        std::optional<Value> replacement;
        if (rule.action == RuleAction::kSetMostCommon) {
          replacement = column_mode->Mode();
        } else {
          const Value& given = table.at(row, rule.given_col);
          if (given.is_null()) continue;  // no conditioning evidence
          replacement =
              self_conditioned
                  ? JointStats::Build(table, rule.given_col,
                                      rule.target_col)
                        .MostCommonGiven(given)
                  : joint_mode->MostCommonGiven(given);
        }
        if (!replacement.has_value()) continue;  // no evidence at all
        const Value& current = table.at(row, rule.target_col);
        const bool differs =
            current.is_null() ? !replacement->is_null()
                              : (replacement->is_null() ||
                                 *replacement != current);
        if (differs) {
          const Value old_value = current;
          table.Set(row, rule.target_col, *replacement);
          changed = true;
          if (column_mode.has_value()) {
            column_mode->Remove(old_value);
            column_mode->Add(*replacement);
          }
          if (joint_mode.has_value()) {
            const Value& cond = table.at(row, rule.given_col);
            joint_mode->Remove(cond, old_value);
            joint_mode->Add(cond, *replacement);
          }
          if (row_index.IsKeyColumn(rule.target_col)) row_index.Rekey(row);
        }
      }
    }
    if (!changed) break;
  }
  return table;
}

std::optional<dc::AttributeGraph> RuleRepair::InfluenceGraph(
    const dc::DcSet& dcs, const Schema& schema) const {
  dc::AttributeGraph graph(schema.size());
  for (const RepairRule& rule : rules_) {
    auto constraint_index = dcs.IndexOf(rule.constraint_name);
    if (!constraint_index.ok()) continue;
    auto target_col = schema.IndexOf(rule.target_attribute);
    if (!target_col.ok()) continue;
    for (std::size_t read_col : dcs.at(*constraint_index).AllColumns()) {
      graph.AddInfluence(read_col, *target_col);
    }
    if (rule.action == RuleAction::kSetMostCommonGiven) {
      auto given_col = schema.IndexOf(rule.given_attribute);
      if (given_col.ok()) graph.AddInfluence(*given_col, *target_col);
    }
    // The statistics source is the target column itself.
    graph.AddInfluence(*target_col, *target_col);
  }
  return graph;
}

}  // namespace trex::repair
