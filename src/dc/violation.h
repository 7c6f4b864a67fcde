// Violation detection: which (pairs of) rows violate which constraints.
//
// A binary DC is violated by an *ordered* pair (row1, row2), row1 != row2;
// symmetric DCs (FD-like) are deduplicated to row1 < row2 by default. The
// detector uses a hash-partition fast path when the DC contains cross-tuple
// equality predicates (the common case), and a nested-loop fallback
// otherwise.

#ifndef TREX_DC_VIOLATION_H_
#define TREX_DC_VIOLATION_H_

#include <string>
#include <vector>

#include "dc/constraint.h"
#include "table/table.h"

namespace trex::dc {

/// One constraint violation.
struct Violation {
  std::size_t constraint_index = 0;
  std::size_t row1 = 0;
  std::size_t row2 = 0;  // == row1 for unary constraints

  bool operator==(const Violation& other) const {
    return constraint_index == other.constraint_index &&
           row1 == other.row1 && row2 == other.row2;
  }
  bool operator<(const Violation& other) const {
    if (constraint_index != other.constraint_index) {
      return constraint_index < other.constraint_index;
    }
    if (row1 != other.row1) return row1 < other.row1;
    return row2 < other.row2;
  }

  /// Renders e.g. "C2 violated by (t3, t5)".
  std::string ToString(const DcSet& dcs) const;
};

/// Detection options.
struct ViolationOptions {
  /// Report a symmetric DC's violation once per unordered pair
  /// (row1 < row2) instead of twice.
  bool dedupe_symmetric = true;
};

/// Computes the violations of `dcs` over `table`.
std::vector<Violation> FindViolations(const Table& table, const DcSet& dcs,
                                      const ViolationOptions& options = {});

/// Violations of one specific constraint.
std::vector<Violation> FindViolationsOf(const Table& table,
                                        const DenialConstraint& dc,
                                        std::size_t constraint_index = 0,
                                        const ViolationOptions& options = {});

/// True iff at least one violation exists (early-exit scan).
bool HasAnyViolation(const Table& table, const DcSet& dcs);

/// True iff row `row` participates in a violation of `dc` (as either
/// tuple variable).
bool RowViolates(const Table& table, const DenialConstraint& dc,
                 std::size_t row);

/// The cells implicated in a violation: the referenced columns of each
/// bound tuple.
std::vector<CellRef> ImplicatedCells(const Violation& violation,
                                     const DcSet& dcs);

/// True iff `p` is a join key: a cross-tuple equality between columns
/// whose equal values have equal codes (not `MixesIntAndDouble`). An
/// int-vs-double equality stays a residual predicate, compared by value.
bool IsJoinKey(const Predicate& p, const Schema& schema);

/// The join-key columns of a binary DC: parallel vectors of the t1-side
/// and t2-side columns, one entry per `IsJoinKey` predicate (empty when
/// the DC has none). Both the detector's hash fast path and
/// `ConstraintRowIndex` partition rows by these columns' codes — sharing
/// the extraction keeps them agreeing on what joins.
struct CrossTupleKeyColumns {
  std::vector<std::size_t> t1_cols;
  std::vector<std::size_t> t2_cols;
};
CrossTupleKeyColumns CrossTupleEqualityColumns(const DenialConstraint& dc,
                                               const Schema& schema);

}  // namespace trex::dc

#endif  // TREX_DC_VIOLATION_H_
