#include "repair/rule_repair.h"

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
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

/// A rule resolved against a constraint set and schema.
struct ResolvedRule {
  std::size_t constraint_index;
  RuleAction action;
  std::size_t target_col;
  std::size_t given_col;  // valid only for kSetMostCommonGiven
  /// A rule conditioning on its own target column would invalidate its
  /// conditioning groups on write, so that (unusual) shape keeps the
  /// build-per-query path and no joint counter.
  bool self_conditioned;
};

/// The rule loop over one bound table (see the rule_repair.h file
/// comment and `RepairSession`).
class RuleRepairSession : public RepairSession {
 public:
  RuleRepairSession(const dc::DcSet& dcs, Table* table,
                    const std::vector<RepairRule>& rules, int max_passes)
      : dcs_(dcs), table_(table), max_passes_(max_passes) {
    TREX_CHECK(table_ != nullptr);
    resolve_status_ = Resolve(rules);
    if (!resolve_status_.ok()) rules_.clear();
    states_.resize(rules_.size());
    num_doubles_.assign(table_->num_columns(), kUncounted);
  }

  void Set(CellRef cell, Value value) override {
    Write(cell.row, cell.col, std::move(value), nullptr);
  }

  Status RepairInPlace(std::vector<CellWrite>* undo) override;

 private:
  /// A rule's violation probe index and statistics, built when the rule
  /// first runs and maintained under every write after that.
  struct RuleState {
    std::optional<dc::ConstraintRowIndex> index;
    std::optional<ModeCounter> column_mode;
    std::optional<ConditionalModeCounter> joint_mode;
  };

  static constexpr std::size_t kUncounted = static_cast<std::size_t>(-1);

  /// Resolves `rules` against the constraint set and the table's schema
  /// into `rules_`. Rules bound to constraints not present in `dcs_` are
  /// silently skipped (that is the semantics of running the algorithm
  /// "without" a constraint).
  [[nodiscard]] Status Resolve(const std::vector<RepairRule>& rules);

  /// Builds rule `i`'s state if absent, and refreshes retained counters
  /// that a rebuild could answer differently (see `HoldsDoubles`).
  RuleState& Prepare(std::size_t i);

  /// True iff column `col` holds a double. A retained counter keeps the
  /// same counts as one rebuilt from the current table, and `Mode()` is
  /// a function of the counts — the argmax, ties to the smallest value —
  /// but the `Value` it returns is a stored representative. Among ints
  /// and strings equal values are identical, so the representative is
  /// too; a double makes it depend on history (int 1 vs double 1.0,
  /// +0.0 vs -0.0, NaN). Retained counters over such a column are
  /// therefore rebuilt when their rule runs, exactly as a one-shot
  /// repair builds them. Counted once per column, then maintained.
  bool HoldsDoubles(std::size_t col);

  /// Overwrites one cell, logs its prior value to `undo` (if given) and
  /// keeps every built index and counter in step.
  void Write(std::size_t row, std::size_t col, Value value,
             std::vector<CellWrite>* undo);

  // Copied, not referenced: a session may outlive the caller's DcSet
  // (the indices below point into it).
  const dc::DcSet dcs_;
  Table* const table_;
  const int max_passes_;
  Status resolve_status_;
  std::vector<ResolvedRule> rules_;
  std::vector<RuleState> states_;
  /// Per column, the number of cells holding a double, or kUncounted.
  std::vector<std::size_t> num_doubles_;
};

Status RuleRepairSession::Resolve(const std::vector<RepairRule>& rules) {
  for (const RepairRule& rule : rules) {
    auto constraint_index = dcs_.IndexOf(rule.constraint_name);
    if (!constraint_index.ok()) continue;  // constraint dropped from input
    TREX_ASSIGN_OR_RETURN(std::size_t target_col,
                          table_->ColumnIndex(rule.target_attribute));
    std::size_t given_col = 0;
    if (rule.action == RuleAction::kSetMostCommonGiven) {
      TREX_ASSIGN_OR_RETURN(given_col,
                            table_->ColumnIndex(rule.given_attribute));
    }
    rules_.push_back(ResolvedRule{
        *constraint_index, rule.action, target_col, given_col,
        rule.action == RuleAction::kSetMostCommonGiven &&
            given_col == target_col});
  }
  return Status::Ok();
}

bool RuleRepairSession::HoldsDoubles(std::size_t col) {
  if (num_doubles_[col] == kUncounted) {
    num_doubles_[col] = 0;
    for (std::size_t r = 0; r < table_->num_rows(); ++r) {
      num_doubles_[col] += table_->at(r, col).is_double();
    }
  }
  return num_doubles_[col] > 0;
}

RuleRepairSession::RuleState& RuleRepairSession::Prepare(std::size_t i) {
  const ResolvedRule& rule = rules_[i];
  RuleState& state = states_[i];
  // Bucketed per-row violation probe over the mutating table — O(1) per
  // row for the counted shape, O(bucket) otherwise, instead of
  // dc::RowViolates' full scan. Its answers depend on the table's
  // content alone, so a retained index answers as a fresh one would.
  if (!state.index.has_value()) {
    state.index.emplace(table_, &dcs_.at(rule.constraint_index));
  }
  // The paper's semantics: statistics reflect the *current* (partially
  // repaired) table. The incremental counters are updated on every
  // write, so each query sees exactly what a fresh ColumnStats /
  // JointStats build over the current table would.
  if (rule.action == RuleAction::kSetMostCommon) {
    if (!state.column_mode.has_value() || HoldsDoubles(rule.target_col)) {
      state.column_mode = BuildModeCounter(*table_, rule.target_col);
    }
  } else if (!rule.self_conditioned) {
    if (!state.joint_mode.has_value() || HoldsDoubles(rule.given_col) ||
        HoldsDoubles(rule.target_col)) {
      state.joint_mode.emplace(*table_, rule.given_col, rule.target_col);
    }
  }
  return state;
}

void RuleRepairSession::Write(std::size_t row, std::size_t col, Value value,
                              std::vector<CellWrite>* undo) {
  Value old_value = table_->at(row, col);
  if (num_doubles_[col] != kUncounted) {
    num_doubles_[col] = num_doubles_[col] + value.is_double() -
                        old_value.is_double();
  }
  table_->Set(row, col, std::move(value));
  const Value& new_value = table_->at(row, col);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = states_[i];
    if (!state.index.has_value()) continue;
    // The index reads other columns live; an indexed column moves the
    // row to its new bucket and group.
    if (state.index->IsKeyColumn(col)) state.index->Rekey(row);
    const ResolvedRule& rule = rules_[i];
    if (state.column_mode.has_value() && col == rule.target_col) {
      state.column_mode->Remove(old_value);
      state.column_mode->Add(new_value);
    }
    if (state.joint_mode.has_value()) {
      if (col == rule.target_col) {
        const Value& cond = table_->at(row, rule.given_col);
        state.joint_mode->Remove(cond, old_value);
        state.joint_mode->Add(cond, new_value);
      } else if (col == rule.given_col) {
        const Value& target = table_->at(row, rule.target_col);
        state.joint_mode->Remove(old_value, target);
        state.joint_mode->Add(new_value, target);
      }
    }
  }
  if (undo != nullptr) {
    undo->push_back({CellRef{row, col}, std::move(old_value)});
  }
}

Status RuleRepairSession::RepairInPlace(std::vector<CellWrite>* undo) {
  if (!resolve_status_.ok()) return resolve_status_;
  for (int pass = 0; pass < max_passes_; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      const ResolvedRule& rule = rules_[i];
      const RuleState& state = Prepare(i);
      for (std::size_t row = 0; row < table_->num_rows(); ++row) {
        if (!state.index->RowViolates(row)) continue;
        std::optional<Value> replacement;
        if (rule.action == RuleAction::kSetMostCommon) {
          replacement = state.column_mode->Mode();
        } else {
          const Value& given = table_->at(row, rule.given_col);
          if (given.is_null()) continue;  // no conditioning evidence
          replacement =
              rule.self_conditioned
                  ? JointStats::Build(*table_, rule.given_col,
                                      rule.target_col)
                        .MostCommonGiven(given)
                  : state.joint_mode->MostCommonGiven(given);
        }
        if (!replacement.has_value()) continue;  // no evidence at all
        const Value& current = table_->at(row, rule.target_col);
        const bool differs =
            current.is_null() ? !replacement->is_null()
                              : (replacement->is_null() ||
                                 *replacement != current);
        if (differs) {
          Write(row, rule.target_col, std::move(*replacement), undo);
          changed = true;
        }
      }
      // A one-shot repair drops the rule's state once the rule is done,
      // so a big table never holds every rule's index at once.
      if (undo == nullptr) states_[i] = RuleState{};
    }
    if (!changed) break;
  }
  return Status::Ok();
}

}  // namespace

RuleRepair::RuleRepair(std::string name, std::vector<RepairRule> rules,
                       RuleRepairOptions options)
    : name_(std::move(name)), rules_(std::move(rules)), options_(options) {}

Result<Table> RuleRepair::Repair(const dc::DcSet& dcs,
                                 const Table& dirty) const {
  Table table = dirty;
  RuleRepairSession session(dcs, &table, rules_, options_.max_passes);
  TREX_RETURN_NOT_OK(session.RepairInPlace(nullptr));
  return table;
}

std::unique_ptr<RepairSession> RuleRepair::OpenSession(const dc::DcSet& dcs,
                                                       Table* table) const {
  return std::make_unique<RuleRepairSession>(dcs, table, rules_,
                                             options_.max_passes);
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
