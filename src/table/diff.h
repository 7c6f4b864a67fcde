// Table diffing: which cells changed between the dirty table `T^d` and the
// repaired table `T^c`, with old and new values (paper §2.1's repaired
// cells, the blue cells of Figure 2b).

#ifndef TREX_TABLE_DIFF_H_
#define TREX_TABLE_DIFF_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace trex {

/// One repaired cell: coordinate plus before/after values.
struct RepairedCell {
  CellRef cell;
  Value old_value;
  Value new_value;

  bool operator==(const RepairedCell& other) const {
    return cell == other.cell && old_value == other.old_value &&
           new_value == other.new_value;
  }

  /// Renders e.g. "t5[Country]: España -> Spain".
  std::string ToString(const Schema& schema) const;
};

/// Computes the cells that differ between `dirty` and `clean`. Fails when
/// the tables are not the same shape. Results are in row-major order.
[[nodiscard]] Result<std::vector<RepairedCell>> DiffTables(const Table& dirty,
                                             const Table& clean);

/// Convenience: true iff cell `cell` holds `clean`'s value in `candidate`,
/// i.e. the repair of that cell was reproduced (the paper's
/// `Alg|t[A] = 1` test against the reference clean value). Both nulls
/// match; otherwise null matches nothing and values compare with
/// `Value::operator==`. Tables sharing a dictionary compare codes.
bool CellRepairedTo(const Table& candidate, const Table& clean, CellRef cell);

}  // namespace trex

#endif  // TREX_TABLE_DIFF_H_
