#include "table/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace trex {

ColumnStats ColumnStats::Build(const Table& table, std::size_t col) {
  TREX_CHECK_LT(col, table.num_columns());
  ColumnStats stats;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.at(r, col);
    if (v.is_null()) continue;
    auto [it, inserted] = stats.counts_.emplace(v, 0);
    ++it->second;
    ++stats.total_;
    if (inserted) stats.sample_values_.push_back(v);
  }
  // Deterministic sampling layout: order values ascending, cumulative
  // counts alongside.
  std::sort(stats.sample_values_.begin(), stats.sample_values_.end());
  stats.sample_cumulative_.reserve(stats.sample_values_.size());
  std::size_t running = 0;
  for (const Value& v : stats.sample_values_) {
    running += stats.counts_.at(v);
    stats.sample_cumulative_.push_back(running);
  }
  return stats;
}

std::size_t ColumnStats::Count(const Value& value) const {
  auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
}

double ColumnStats::Probability(const Value& value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(Count(value)) / static_cast<double>(total_);
}

std::optional<Value> ColumnStats::MostCommon() const {
  std::optional<Value> best;
  std::size_t best_count = 0;
  for (const Value& v : sample_values_) {  // ascending => smallest wins ties
    const std::size_t count = counts_.at(v);
    if (count > best_count) {
      best_count = count;
      best = v;
    }
  }
  return best;
}

std::vector<Value> ColumnStats::DistinctSorted() const {
  return sample_values_;  // already sorted ascending
}

Value ColumnStats::Sample(Rng* rng) const {
  TREX_CHECK_GT(total_, 0u);
  const std::size_t target =
      static_cast<std::size_t>(rng->UniformUint64(total_)) + 1;
  auto it = std::lower_bound(sample_cumulative_.begin(),
                             sample_cumulative_.end(), target);
  TREX_CHECK(it != sample_cumulative_.end());
  return sample_values_[static_cast<std::size_t>(
      it - sample_cumulative_.begin())];
}

JointStats JointStats::Build(const Table& table, std::size_t cond_col,
                             std::size_t target_col) {
  TREX_CHECK_LT(cond_col, table.num_columns());
  TREX_CHECK_LT(target_col, table.num_columns());
  // Group rows by conditioning value, then reuse ColumnStats::Build on a
  // per-group projection.
  std::unordered_map<Value, std::vector<Value>, ValueHash> groups;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const Value& cond = table.at(r, cond_col);
    const Value& target = table.at(r, target_col);
    if (cond.is_null() || target.is_null()) continue;
    groups[cond].push_back(target);
  }
  JointStats joint;
  for (auto& [cond, targets] : groups) {
    Table projection(
        Schema({Attribute{"v", table.schema().attribute(target_col).type}}));
    for (Value& t : targets) {
      TREX_CHECK(projection.AppendRow({std::move(t)}).ok());
    }
    joint.per_cond_.emplace(cond, ColumnStats::Build(projection, 0));
  }
  return joint;
}

std::optional<Value> JointStats::MostCommonGiven(
    const Value& cond_value) const {
  auto it = per_cond_.find(cond_value);
  if (it == per_cond_.end()) return std::nullopt;
  return it->second.MostCommon();
}

double JointStats::ProbabilityGiven(const Value& cond_value,
                                    const Value& target_value) const {
  auto it = per_cond_.find(cond_value);
  if (it == per_cond_.end()) return 0.0;
  return it->second.Probability(target_value);
}

std::size_t JointStats::CountGiven(const Value& cond_value) const {
  auto it = per_cond_.find(cond_value);
  if (it == per_cond_.end()) return 0;
  return it->second.total();
}

std::vector<Value> JointStats::TargetsGiven(const Value& cond_value) const {
  auto it = per_cond_.find(cond_value);
  if (it == per_cond_.end()) return {};
  return it->second.DistinctSorted();
}

const ColumnStats& TableStats::Column(std::size_t col) {
  auto it = columns_.find(col);
  if (it == columns_.end()) {
    it = columns_.emplace(col, ColumnStats::Build(*table_, col)).first;
  }
  return it->second;
}

const JointStats& TableStats::Joint(std::size_t cond_col,
                                    std::size_t target_col) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(cond_col) << 32) | target_col;
  auto it = joints_.find(key);
  if (it == joints_.end()) {
    it = joints_.emplace(key, JointStats::Build(*table_, cond_col,
                                                target_col))
             .first;
  }
  return it->second;
}

}  // namespace trex
