// `Table`: an in-memory relation with a fixed schema, plus `CellRef`, the
// (row, column) coordinate used to address cells across the library.
//
// Storage is a flat row-major `std::vector<Value>`; a cell also has a
// *linear index* `row * num_columns + column`, which is exactly the
// "vectorized table" ordering of the paper's Example 2.5
// (t1[A1], t1[A2], ..., t2[A1], ...). The Shapley cell game indexes players
// by this linear id.

#ifndef TREX_TABLE_TABLE_H_
#define TREX_TABLE_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "table/schema.h"
#include "table/value.h"

namespace trex {

/// Coordinate of one cell: row index and column index.
struct CellRef {
  std::size_t row = 0;
  std::size_t col = 0;

  bool operator==(const CellRef& other) const {
    return row == other.row && col == other.col;
  }
  bool operator!=(const CellRef& other) const { return !(*this == other); }
  bool operator<(const CellRef& other) const {
    return row != other.row ? row < other.row : col < other.col;
  }

  /// Renders e.g. "t5[Country]" when a schema is supplied (rows are
  /// 1-based in the paper's notation), else "(4,2)".
  std::string ToString() const;
  std::string ToString(const Schema& schema) const;
};

struct CellRefHash {
  std::size_t operator()(const CellRef& c) const {
    return c.row * 1000003u + c.col;
  }
};

/// One pending cell overwrite: the unit of the table layer's delta
/// fingerprints (`Table::DeltaFingerprint`) and of perturbation-based
/// coalition evaluation (`BlackBoxRepair::EvalPerturbation`), which
/// describe a perturbed table as (base table, write set) without ever
/// materializing it.
struct CellWrite {
  CellRef cell;
  Value value;
};

/// The XOR shift one cell write applies to a table's fingerprints
/// (`Table::WriteDelta`). Self-inverse and order-independent, so hot
/// loops precompute deltas once and maintain a running fingerprint by
/// XORing `fp64`/`fp128` per change — no hashing on the evaluation
/// path.
struct FingerprintDelta {
  std::uint64_t fp64 = 0;
  Hash128 fp128;
};

/// A relation: schema plus rows of `Value`s.
class Table {
 public:
  /// Creates an empty table with the given schema.
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table() = default;

  /// The schema.
  const Schema& schema() const { return schema_; }

  std::size_t num_rows() const {
    return schema_.size() == 0 ? 0 : cells_.size() / schema_.size();
  }
  std::size_t num_columns() const { return schema_.size(); }

  /// Total number of cells (= the Shapley cell game's player count).
  std::size_t num_cells() const { return cells_.size(); }

  /// Appends a row; the arity must match the schema. Values are not
  /// type-checked against attribute types (dirty data is the point), but
  /// arity is.
  [[nodiscard]] Status AppendRow(std::vector<Value> row);

  /// Cell access (bounds-checked fatally).
  const Value& at(std::size_t row, std::size_t col) const;
  const Value& at(CellRef cell) const { return at(cell.row, cell.col); }

  /// Overwrites one cell.
  void Set(std::size_t row, std::size_t col, Value value);
  void Set(CellRef cell, Value value) {
    Set(cell.row, cell.col, std::move(value));
  }

  /// Linear (vectorized) cell index, per Example 2.5 ordering.
  std::size_t LinearIndex(CellRef cell) const {
    return cell.row * num_columns() + cell.col;
  }
  CellRef FromLinearIndex(std::size_t index) const;

  /// All cell coordinates in vectorized order.
  std::vector<CellRef> AllCells() const;

  /// Column index by attribute name.
  [[nodiscard]] Result<std::size_t> ColumnIndex(const std::string& name) const {
    return schema_.IndexOf(name);
  }

  /// Convenience typed lookup: `table.Cell(4, "Country")`; fatal when the
  /// attribute does not exist (programmer error in examples/tests).
  const Value& Cell(std::size_t row, const std::string& attribute) const;

  /// Structural equality: same schema, same rows, same values.
  bool operator==(const Table& other) const {
    return schema_ == other.schema_ && cells_ == other.cells_;
  }
  bool operator!=(const Table& other) const { return !(*this == other); }

  /// Content fingerprint; equal tables have equal fingerprints. Used to
  /// memoize black-box repair calls and to key engines in the router.
  ///
  /// The fingerprint is *XOR-combinable*: it is the schema hash XOR'd
  /// with one position-keyed hash per cell (row, col, value). Changing a
  /// cell therefore shifts the fingerprint by exactly
  /// `H(pos, old) ^ H(pos, new)`, which is what lets
  /// `DeltaFingerprint` compute a perturbed table's fingerprint in
  /// O(#writes) from a cached base instead of re-hashing O(#cells).
  std::uint64_t Fingerprint() const;

  /// `Fingerprint()` plus a 128-bit fingerprint over exactly the
  /// per-cell hashes it XORs (same position-keyed scheme, wider state),
  /// in one content traversal. The repair-table memo needs both per
  /// evaluation: the 64-bit bucket key, and the 128-bit hash as its first
  /// verification step before the exact write-set comparison. Equal
  /// tables have equal fingerprints.
  void DualFingerprint(std::uint64_t* fp64, Hash128* fp128) const;

  /// Fingerprints of the table obtained by applying `writes` on top of
  /// this table, computed in O(#writes) from this table's own
  /// fingerprints (`base64`/`base128`, as returned by
  /// `DualFingerprint`) — the perturbed table is never materialized.
  /// Equal to the from-scratch `DualFingerprint` of the materialized
  /// table. Writes must address in-bounds, pairwise-distinct cells (a
  /// duplicate cell would double-cancel its base hash); a write that
  /// re-states the current value is a no-op.
  void DeltaFingerprint(std::uint64_t base64, const Hash128& base128,
                        std::span<const CellWrite> writes,
                        std::uint64_t* fp64, Hash128* fp128) const;

  /// The XOR shift that writing `value` into `cell` applies to this
  /// table's fingerprints: H(pos, current) ^ H(pos, value).
  /// `DeltaFingerprint` is exactly the fold of these; hot loops
  /// precompute the deltas of the writes they toggle and XOR them into
  /// a running fingerprint instead of re-hashing per evaluation.
  FingerprintDelta WriteDelta(CellRef cell, const Value& value) const;

 private:
  Schema schema_;
  std::vector<Value> cells_;  // row-major
};

}  // namespace trex

#endif  // TREX_TABLE_TABLE_H_
