// Seeded error injection with ground truth.
//
// Reproduces the demo setup ("errors will be manually added into the
// table", paper §4) mechanically: given a clean table, injects a chosen
// mix of error kinds into randomly selected cells and records every
// corruption, so repair quality is measurable (repair/metrics.h).

#ifndef TREX_DATA_ERRORS_H_
#define TREX_DATA_ERRORS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "table/diff.h"
#include "table/table.h"

namespace trex::data {

/// Kinds of injected cell errors.
enum class ErrorKind {
  /// Replace with a different value drawn from the same column.
  kSwapWithinColumn,
  /// A fresh, out-of-domain value of the column's type: a character
  /// appended to a string, a number past the column's maximum.
  kTypo,
  /// Set the cell to null.
  kMissing,
};

/// Injection parameters.
struct ErrorInjectorOptions {
  /// Fraction of cells to corrupt (each selected cell gets one error).
  double error_rate = 0.05;
  /// Hard cap on corrupted cells; 0 = uncapped. Large-table sweeps use
  /// a fixed error budget so downstream costs that scale with the
  /// *error* count (noisy-cell inference, conflict frontiers) measure
  /// table-size scaling, not error-count scaling.
  std::size_t max_errors = 0;
  /// Relative weights of the error kinds (need not sum to 1).
  double weight_swap = 0.6;
  double weight_typo = 0.3;
  double weight_missing = 0.1;
  /// Restrict injection to these columns (empty = all columns).
  std::vector<std::size_t> columns;
  std::uint64_t seed = Rng::kDefaultSeed;
};

/// The result of an injection run.
struct InjectionResult {
  Table dirty;
  /// Every corrupted cell with its true and injected value
  /// (old_value = truth, new_value = corruption).
  std::vector<RepairedCell> injected;
};

/// Corrupts a copy of `clean` per `options`.
InjectionResult InjectErrors(const Table& clean,
                             const ErrorInjectorOptions& options = {});

}  // namespace trex::data

#endif  // TREX_DATA_ERRORS_H_
