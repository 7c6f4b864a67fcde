#include "core/subset_walk.h"

#include <algorithm>
#include <string>

namespace trex::shap {

Result<std::vector<double>> MaterializeCoalitionValues(
    const Game& game, const SubsetWalkOptions& options, const char* context) {
  const std::size_t n = game.num_players();
  if (n == 0) return std::vector<double>{};
  const std::size_t cap = std::min(options.max_players, kMaxSubsetWalkPlayers);
  if (n > cap) {
    std::string message = std::string(context) + " over " +
                          std::to_string(n) + " players exceeds the cap of " +
                          std::to_string(cap);
    if (options.over_cap_hint != nullptr) {
      message += std::string(" ") + options.over_cap_hint;
    }
    return Status::InvalidArgument(std::move(message));
  }
  const std::size_t num_masks = std::size_t{1} << n;
  std::vector<double> v(num_masks);

  // Evaluates masks [begin, end) into the shard's disjoint slice of v.
  auto walk_range = [&](std::size_t begin, std::size_t end) {
    Coalition coalition(n, false);
    for (std::size_t mask = begin; mask < end; ++mask) {
      if (options.cancel.cancelled()) return;
      for (std::size_t i = 0; i < n; ++i) coalition[i] = (mask >> i) & 1;
      v[mask] = game.Value(coalition);
    }
  };

  const std::size_t shard_size = std::max<std::size_t>(options.shard_size, 1);
  const std::size_t num_shards = (num_masks + shard_size - 1) / shard_size;
  ThreadPool::RunSharded(
      options.pool, options.num_threads, num_shards, [&](std::size_t shard) {
        const std::size_t begin = shard * shard_size;
        walk_range(begin, std::min(begin + shard_size, num_masks));
      });
  if (options.cancel.cancelled()) {
    return Status::Cancelled(std::string(context) + " computation cancelled");
  }
  return v;
}

}  // namespace trex::shap
