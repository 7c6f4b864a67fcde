#include "repair/rule_repair.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "dc/row_index.h"
#include "dc/violation.h"
#include "table/stats.h"

namespace trex::repair {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Counts of non-null codes with the mode maintained under single
/// updates — the incremental form of `ColumnStats::MostCommon` (nulls
/// excluded, ties toward the smallest value). The mode is patched on
/// increments and lazily rescanned (strictly-greater count wins, ties to
/// the smaller value) when the current mode loses weight, so a repair
/// loop's writes cost O(1) amortized instead of an O(n) stats rebuild
/// each.
///
/// Equal values of one column have equal codes, so codes are counted in
/// a flat array: indexed by code when `dense` (one counter per column),
/// else scanned (one small counter per conditioning group). Only ties
/// decode values.
class ModeCounter {
 public:
  ModeCounter(const Table* table, bool dense) : table_(table), dense_(dense) {}

  void Add(std::uint32_t code) {
    if (code == kNullCode) return;
    const std::uint32_t count = ++FindOrInsert(code).count;
    if (stale_) return;
    if (mode_ == kNullCode || count > mode_count_ ||
        (count == mode_count_ && Less(code, mode_))) {
      mode_ = code;
      mode_count_ = count;
    }
  }

  void Remove(std::uint32_t code) {
    if (code == kNullCode) return;
    const std::size_t i = Find(code);
    if (i == kNone || entries_[i].count == 0) return;  // defensive
    --entries_[i].count;
    if (code == mode_) stale_ = true;
  }

  /// The mode's code, or kNullCode when nothing is counted.
  std::uint32_t Mode() const {
    if (stale_) {
      mode_ = kNullCode;
      mode_count_ = 0;
      for (const Entry& entry : entries_) {
        if (entry.count > mode_count_ ||
            (entry.count == mode_count_ && mode_ != kNullCode &&
             Less(entry.code, mode_))) {
          mode_ = entry.code;
          mode_count_ = entry.count;
        }
      }
      stale_ = false;
    }
    return mode_;
  }

 private:
  struct Entry {
    std::uint32_t code;
    std::uint32_t count;
  };

  bool Less(std::uint32_t a, std::uint32_t b) const {
    const ValueDictionary& dict = table_->dictionary();
    return dict.value(a) < dict.value(b);
  }

  /// The index of the entry counting `code`, or kNone.
  std::size_t Find(std::uint32_t code) const {
    if (dense_) return code < slot_.size() ? slot_[code] : kNone;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].code == code) return i;
    }
    return kNone;
  }

  Entry& FindOrInsert(std::uint32_t code) {
    const std::size_t found = Find(code);
    if (found != kNone) return entries_[found];
    if (dense_) {
      if (code >= slot_.size()) {
        slot_.resize(std::max<std::size_t>(code + 1,
                                           table_->dictionary().size()),
                     kNone);
      }
      slot_[code] = static_cast<std::uint32_t>(entries_.size());
    }
    return entries_.emplace_back(Entry{code, 0});
  }

  const Table* table_;
  bool dense_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slot_;  // dense: entry index by code
  mutable std::uint32_t mode_ = kNullCode;
  mutable std::uint32_t mode_count_ = 0;
  mutable bool stale_ = false;
};

/// Incremental `JointStats::MostCommonGiven` over (cond, target)
/// columns: one `ModeCounter` per conditioning code, rows with a null on
/// either side excluded — matching `JointStats::Build`.
class ConditionalModeCounter {
 public:
  ConditionalModeCounter(const Table* table, std::size_t cond_col,
                         std::size_t target_col)
      : table_(table) {
    for (std::size_t r = 0; r < table->num_rows(); ++r) {
      Add(table->code(r, cond_col), table->code(r, target_col));
    }
  }

  void Add(std::uint32_t cond, std::uint32_t target) {
    if (cond == kNullCode || target == kNullCode) return;
    std::uint32_t group = FindGroup(cond);
    if (group == kNone) {
      group = static_cast<std::uint32_t>(groups_.size());
      groups_.emplace_back(table_, /*dense=*/false);
      if (cond >= group_of_.size()) {
        group_of_.resize(
            std::max<std::size_t>(cond + 1, table_->dictionary().size()),
            kNone);
      }
      group_of_[cond] = group;
    }
    groups_[group].Add(target);
  }

  void Remove(std::uint32_t cond, std::uint32_t target) {
    if (cond == kNullCode || target == kNullCode) return;
    const std::uint32_t group = FindGroup(cond);
    if (group != kNone) groups_[group].Remove(target);
  }

  /// The mode among rows whose conditioning value is `cond`, or
  /// kNullCode when there is none.
  std::uint32_t MostCommonGiven(std::uint32_t cond) const {
    const std::uint32_t group = FindGroup(cond);
    return group == kNone ? kNullCode : groups_[group].Mode();
  }

 private:
  std::uint32_t FindGroup(std::uint32_t cond) const {
    return cond < group_of_.size() ? group_of_[cond] : kNone;
  }

  const Table* table_;
  std::vector<std::uint32_t> group_of_;  // by conditioning code
  std::vector<ModeCounter> groups_;
};

ModeCounter BuildModeCounter(const Table& table, std::size_t col) {
  ModeCounter counter(&table, /*dense=*/true);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    counter.Add(table.code(r, col));
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
      : RepairSession(table), dcs_(dcs), max_passes_(max_passes) {
    TREX_CHECK(table != nullptr);
    resolve_status_ = Resolve(rules);
    if (!resolve_status_.ok()) rules_.clear();
    states_.resize(rules_.size());
  }

  void SetCode(CellRef cell, std::uint32_t code) override {
    Write(cell.row, cell.col, code, nullptr);
  }

  Status RepairCodes(std::vector<CodeWrite>* undo) override;

 private:
  /// A rule's violation probe index and statistics, built when the rule
  /// first runs and maintained under every write after that.
  struct RuleState {
    std::optional<dc::ConstraintRowIndex> index;
    std::optional<ModeCounter> column_mode;
    std::optional<ConditionalModeCounter> joint_mode;
  };

  /// Resolves `rules` against the constraint set and the table's schema
  /// into `rules_`. Rules bound to constraints not present in `dcs_` are
  /// silently skipped (that is the semantics of running the algorithm
  /// "without" a constraint).
  [[nodiscard]] Status Resolve(const std::vector<RepairRule>& rules);

  /// Builds rule `i`'s state if absent.
  RuleState& Prepare(std::size_t i);

  /// Overwrites one cell, logs its prior code to `undo` (if given) and
  /// keeps every built index and counter in step.
  void Write(std::size_t row, std::size_t col, std::uint32_t code,
             std::vector<CodeWrite>* undo);

  // Copied, not referenced: a session may outlive the caller's DcSet
  // (the indices below point into it).
  const dc::DcSet dcs_;
  const int max_passes_;
  Status resolve_status_;
  std::vector<ResolvedRule> rules_;
  std::vector<RuleState> states_;
};

Status RuleRepairSession::Resolve(const std::vector<RepairRule>& rules) {
  for (const RepairRule& rule : rules) {
    auto constraint_index = dcs_.IndexOf(rule.constraint_name);
    if (!constraint_index.ok()) continue;  // constraint dropped from input
    TREX_ASSIGN_OR_RETURN(std::size_t target_col,
                          table()->ColumnIndex(rule.target_attribute));
    std::size_t given_col = 0;
    if (rule.action == RuleAction::kSetMostCommonGiven) {
      TREX_ASSIGN_OR_RETURN(given_col,
                            table()->ColumnIndex(rule.given_attribute));
    }
    rules_.push_back(ResolvedRule{
        *constraint_index, rule.action, target_col, given_col,
        rule.action == RuleAction::kSetMostCommonGiven &&
            given_col == target_col});
  }
  return Status::Ok();
}

RuleRepairSession::RuleState& RuleRepairSession::Prepare(std::size_t i) {
  const ResolvedRule& rule = rules_[i];
  RuleState& state = states_[i];
  // Bucketed per-row violation probe over the mutating table — O(1) per
  // row for the counted shape, O(bucket) otherwise, instead of
  // dc::RowViolates' full scan. Its answers depend on the table's
  // content alone, so a retained index answers as a fresh one would.
  if (!state.index.has_value()) {
    state.index.emplace(table(), &dcs_.at(rule.constraint_index));
  }
  // The paper's semantics: statistics reflect the *current* (partially
  // repaired) table. The incremental counters are updated on every
  // write, so each query sees exactly what a fresh ColumnStats /
  // JointStats build over the current table would.
  if (rule.action == RuleAction::kSetMostCommon) {
    if (!state.column_mode.has_value()) {
      state.column_mode = BuildModeCounter(*table(), rule.target_col);
    }
  } else if (!rule.self_conditioned && !state.joint_mode.has_value()) {
    state.joint_mode.emplace(table(), rule.given_col, rule.target_col);
  }
  return state;
}

void RuleRepairSession::Write(std::size_t row, std::size_t col,
                              std::uint32_t code,
                              std::vector<CodeWrite>* undo) {
  const std::uint32_t old_code = table()->code(row, col);
  table()->SetCode(row, col, code);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = states_[i];
    if (!state.index.has_value()) continue;
    // The index reads other columns live; an indexed column moves the
    // row to its new bucket and group.
    if (state.index->IsKeyColumn(col)) state.index->Rekey(row);
    const ResolvedRule& rule = rules_[i];
    if (state.column_mode.has_value() && col == rule.target_col) {
      state.column_mode->Remove(old_code);
      state.column_mode->Add(code);
    }
    if (state.joint_mode.has_value()) {
      if (col == rule.target_col) {
        const std::uint32_t cond = table()->code(row, rule.given_col);
        state.joint_mode->Remove(cond, old_code);
        state.joint_mode->Add(cond, code);
      } else if (col == rule.given_col) {
        const std::uint32_t target = table()->code(row, rule.target_col);
        state.joint_mode->Remove(old_code, target);
        state.joint_mode->Add(code, target);
      }
    }
  }
  if (undo != nullptr) undo->push_back({CellRef{row, col}, old_code});
}

Status RuleRepairSession::RepairCodes(std::vector<CodeWrite>* undo) {
  if (!resolve_status_.ok()) return resolve_status_;
  for (int pass = 0; pass < max_passes_; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      const ResolvedRule& rule = rules_[i];
      const RuleState& state = Prepare(i);
      for (std::size_t row = 0; row < table()->num_rows(); ++row) {
        if (!state.index->RowViolates(row)) continue;
        std::uint32_t replacement = kNullCode;
        if (rule.action == RuleAction::kSetMostCommon) {
          replacement = state.column_mode->Mode();
        } else {
          const std::uint32_t given = table()->code(row, rule.given_col);
          if (given == kNullCode) continue;  // no conditioning evidence
          if (rule.self_conditioned) {
            const std::optional<Value> mode =
                JointStats::Build(*table(), rule.given_col, rule.target_col)
                    .MostCommonGiven(table()->dictionary().value(given));
            if (mode.has_value()) replacement = table()->Intern(*mode);
          } else {
            replacement = state.joint_mode->MostCommonGiven(given);
          }
        }
        if (replacement == kNullCode) continue;  // no evidence at all
        // A null cell differs from every replacement.
        if (replacement != table()->code(row, rule.target_col)) {
          Write(row, rule.target_col, replacement, undo);
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
  TREX_RETURN_NOT_OK(session.RepairCodes(nullptr));
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
