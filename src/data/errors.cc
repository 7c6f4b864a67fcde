#include "data/errors.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/logging.h"
#include "table/stats.h"

namespace trex::data {
namespace {

/// A fresh value for a typo of `truth`, which sits at `pos` in the clean
/// column `domain`: a string gets a character appended; an int or double
/// moves past the domain's maximum by one plus `pos`, keeping its column
/// type (null where that overflows).
Value Typo(const Value& truth, const std::vector<Value>& domain,
           std::size_t pos) {
  const auto step = static_cast<std::int64_t>(pos) + 1;
  if (truth.is_int()) {
    std::int64_t typo = 0;
    return __builtin_add_overflow(domain.back().as_int(), step, &typo)
               ? Value::Null()
               : Value(typo);
  }
  if (truth.is_double()) {
    const double max = domain.back().as_double();
    const double typo = max + static_cast<double>(step);
    return typo > max && !std::isinf(typo) ? Value(typo) : Value::Null();
  }
  return Value(truth.ToString() + "~");
}

ErrorKind PickKind(Rng* rng, const ErrorInjectorOptions& options) {
  const double total =
      options.weight_swap + options.weight_typo + options.weight_missing;
  TREX_CHECK_GT(total, 0.0);
  const double u = rng->UniformDouble() * total;
  if (u < options.weight_swap) return ErrorKind::kSwapWithinColumn;
  if (u < options.weight_swap + options.weight_typo) return ErrorKind::kTypo;
  return ErrorKind::kMissing;
}

}  // namespace

InjectionResult InjectErrors(const Table& clean,
                             const ErrorInjectorOptions& options) {
  Rng rng(options.seed);
  InjectionResult result{clean, {}};

  std::vector<CellRef> candidates;
  for (const CellRef& cell : clean.AllCells()) {
    if (!options.columns.empty() &&
        std::find(options.columns.begin(), options.columns.end(),
                  cell.col) == options.columns.end()) {
      continue;
    }
    if (clean.at(cell).is_null()) continue;
    candidates.push_back(cell);
  }
  rng.Shuffle(&candidates);
  std::size_t num_errors = static_cast<std::size_t>(
      options.error_rate * static_cast<double>(candidates.size()) + 0.5);
  if (options.max_errors > 0) {
    num_errors = std::min(num_errors, options.max_errors);
  }

  // Swap sources are drawn from the *clean* column domain, never from
  // `result.dirty` mid-injection: earlier corruptions (typos, swaps)
  // must not leak back in as "realistic" values. Built lazily, once per
  // column.
  std::unordered_map<std::size_t, std::vector<Value>> clean_domains;
  const auto domain_of = [&](std::size_t col) -> const std::vector<Value>& {
    auto it = clean_domains.find(col);
    if (it == clean_domains.end()) {
      it = clean_domains
               .emplace(col,
                        ColumnStats::Build(clean, col).DistinctSorted())
               .first;
    }
    return it->second;
  };

  for (std::size_t i = 0; i < num_errors && i < candidates.size(); ++i) {
    const CellRef cell = candidates[i];
    const Value truth = clean.at(cell);
    Value corrupted;
    const ErrorKind kind = PickKind(&rng, options);
    if (kind != ErrorKind::kMissing) {
      // The domain holds the truth exactly once, at `pos`; a swap draws
      // one of the others, and a single-value column falls back to a
      // typo.
      const std::vector<Value>& domain = domain_of(cell.col);
      const std::size_t pos = static_cast<std::size_t>(
          std::lower_bound(domain.begin(), domain.end(), truth) -
          domain.begin());
      if (kind == ErrorKind::kSwapWithinColumn && domain.size() > 1) {
        const std::size_t k = rng.Index(domain.size() - 1);
        corrupted = domain[k + (k >= pos ? 1 : 0)];
      } else {
        corrupted = Typo(truth, domain, pos);
      }
    }
    result.dirty.Set(cell, corrupted);
    result.injected.push_back(RepairedCell{cell, truth, corrupted});
  }
  return result;
}

}  // namespace trex::data
