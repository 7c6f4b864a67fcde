// `Table`: an in-memory relation with a fixed schema, plus `CellRef`, the
// (row, column) coordinate used to address cells across the library.
//
// Storage is dictionary-encoded and columnar: each column is a vector of
// `uint32` codes, and a code names one entry of the table's append-only
// `ValueDictionary`. Two codes of one dictionary are equal iff their
// values are `ExactlyEqual` (same type, equal value): 1 and 1.0, and ""
// and null, get codes of their own; -0.0 is interned as +0.0. Code 0
// (`kNullCode`) is null in every dictionary.
//
// Columns are typed: a cell holds null or a value of its attribute's
// type, and no cell holds a NaN. `AppendRow` returns a `Status` for any
// other value; `Set` and `SetCode` check it as a programmer error. Equal
// values in one column therefore have equal codes, and so do equal
// values in two columns of one type; an int column against a double
// column is the one pair that must compare values (`MixesIntAndDouble`).
//
// Copies of a table share its dictionary copy-on-write. Copying marks the
// dictionary shared, and a shared dictionary is never mutated again: a
// write that needs a value the dictionary lacks clones it first (the
// clone keeps every code, so codes read earlier stay valid for the
// table). T^d, T^c and the per-thread evaluation scratch therefore read
// one dictionary without a lock. Entries never move, and a clone keeps
// its parent alive, so the `const Value&` that `at()` returns stays valid
// across later `Set`s of the table, as it did when cells were stored
// inline.
//
// A cell also has a *linear index* `row * num_columns + column`, which is
// exactly the "vectorized table" ordering of the paper's Example 2.5
// (t1[A1], t1[A2], ..., t2[A1], ...). The Shapley cell game indexes
// players by this linear id.

#ifndef TREX_TABLE_TABLE_H_
#define TREX_TABLE_TABLE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
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

/// One pending cell overwrite: the unit of perturbation-based coalition
/// evaluation (`BlackBoxRepair::EvalPerturbation`), which describes a
/// perturbed table as (base table, write set) and materializes it only
/// on a memo miss. The write set's cells whose bytes differ from the
/// base, sorted by linear index, are the memo's key for that table.
struct CellWrite {
  CellRef cell;
  Value value;
};

/// One cell write by code (of the written table's dictionary): the undo
/// log unit of `repair::RepairSession`.
struct CodeWrite {
  CellRef cell;
  std::uint32_t code;
};

/// The code of null in every `ValueDictionary`.
inline constexpr std::uint32_t kNullCode = 0;

/// The append-only value dictionary behind a `Table`'s codes (see the file
/// comment). Entry 0 is null. Besides each value it keeps the value's
/// `Value::Hash` and type, so code-keyed hash indices and type checks
/// never re-hash or decode a value.
class ValueDictionary {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  ValueDictionary();
  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;

  /// Number of entries (codes are 0 .. size() - 1).
  std::size_t size() const { return hashes_.size(); }

  const Value& value(std::uint32_t code) const {
    // Chunk k holds codes [8 * 2^k - 8, 16 * 2^k - 8).
    const std::uint64_t shifted = std::uint64_t{code} + 8;
    const auto chunk = static_cast<std::size_t>(std::bit_width(shifted)) - 4;
    return chunks_[chunk][shifted - (std::uint64_t{8} << chunk)];
  }

  /// `Value::Hash()` of entry `code`.
  std::size_t value_hash(std::uint32_t code) const { return hashes_[code]; }

  ValueType type(std::uint32_t code) const { return types_[code]; }

  /// The code of the entry `ExactlyEqual` to `value`, or kAbsent.
  std::uint32_t Find(const Value& value) const;

 private:
  friend class Table;

  static constexpr std::size_t kNumChunks = 30;

  /// Appends `value`, which must be absent and not a NaN; -0.0 is stored
  /// as +0.0.
  std::uint32_t Add(Value value);
  /// A mutable copy with the same codes, keeping this one alive.
  std::shared_ptr<ValueDictionary> Clone(
      std::shared_ptr<const ValueDictionary> self) const;
  void Rehash(std::size_t num_slots);
  std::size_t Slot(std::size_t hash) const {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::array<std::unique_ptr<Value[]>, kNumChunks> chunks_;
  std::vector<std::size_t> hashes_;
  std::vector<ValueType> types_;
  /// Open-addressing index from `Value::Hash` to codes (kAbsent: empty).
  std::vector<std::uint32_t> slots_;
  int shift_ = 64;
  /// Set when a table copy starts sharing the dictionary; never cleared.
  mutable std::atomic<bool> shared_{false};
  /// The dictionary this one was cloned from: references a table handed
  /// out before the clone point into it.
  std::shared_ptr<const ValueDictionary> parent_;
};

/// True iff one of columns `a` and `b` is typed int and the other double:
/// the one pair of columns in which equal values have different codes.
bool MixesIntAndDouble(const Schema& schema, std::size_t a, std::size_t b);

/// A relation: schema plus rows of `Value`s, stored as dictionary codes
/// (see the file comment).
class Table {
 public:
  /// Creates an empty table with the given schema.
  explicit Table(Schema schema);
  Table() : Table(Schema()) {}

  /// Copies share the dictionary (copy-on-write, see the file comment).
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// The schema.
  const Schema& schema() const { return schema_; }

  std::size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  std::size_t num_columns() const { return schema_.size(); }

  /// Total number of cells (= the Shapley cell game's player count).
  std::size_t num_cells() const { return num_rows() * num_columns(); }

  /// Appends a row. Fails, appending nothing, unless the arity matches
  /// the schema and every value passes `CheckValue`.
  [[nodiscard]] Status AppendRow(std::vector<Value> row);

  /// Ok iff column `col` may hold `value`: null, or a value of the
  /// column's type that is not a NaN.
  [[nodiscard]] Status CheckValue(std::size_t col, const Value& value) const;

  /// Cell access (bounds-checked fatally). The reference points into the
  /// dictionary and stays valid while the table lives. Forced inline, as
  /// is `code()`: the checks' failure path would otherwise keep these hot
  /// accessors out of line.
  [[gnu::always_inline]] const Value& at(std::size_t row,
                                         std::size_t col) const {
    TREX_CHECK_LT(row, num_rows());
    TREX_CHECK_LT(col, num_columns());
    return dict_->value(columns_[col][row]);
  }
  [[gnu::always_inline]] const Value& at(CellRef cell) const {
    return at(cell.row, cell.col);
  }

  /// Overwrites one cell; `value` must pass `CheckValue`.
  void Set(std::size_t row, std::size_t col, Value value) {
    SetCode(row, col, InternValue(std::move(value)));
  }
  void Set(CellRef cell, Value value) {
    Set(cell.row, cell.col, std::move(value));
  }

  /// The cell's code in `dictionary()` (bounds-checked fatally).
  [[gnu::always_inline]] std::uint32_t code(std::size_t row,
                                            std::size_t col) const {
    TREX_CHECK_LT(row, num_rows());
    TREX_CHECK_LT(col, num_columns());
    return columns_[col][row];
  }
  [[gnu::always_inline]] std::uint32_t code(CellRef cell) const {
    return code(cell.row, cell.col);
  }

  /// Overwrites one cell with `code`, which must be a code of this
  /// table's dictionary (read from this table, or returned by `Intern`)
  /// naming null or a value of the column's type.
  void SetCode(std::size_t row, std::size_t col, std::uint32_t code);
  void SetCode(CellRef cell, std::uint32_t code) {
    SetCode(cell.row, cell.col, code);
  }

  /// The code of `value` in this table's dictionary, added (to a clone,
  /// when the dictionary is shared) if new. Cells are unchanged.
  std::uint32_t Intern(const Value& value);

  const ValueDictionary& dictionary() const { return *dict_; }

  /// True iff both tables read one dictionary, so equal codes are equal
  /// values across them.
  bool SharesDictionary(const Table& other) const {
    return dict_ == other.dict_;
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

  /// Structural equality: same schema, same rows, and values equal under
  /// `Value::operator==`.
  bool operator==(const Table& other) const;
  bool operator!=(const Table& other) const { return !(*this == other); }

  /// Content fingerprint; equal tables have equal fingerprints. Keys
  /// engines in the router (serving/router.h). The schema hash XOR'd
  /// with one position-keyed FNV-1a hash per cell (row, col, type tag,
  /// value bytes), so it is order-free to compute and tells null from "".
  std::uint64_t Fingerprint() const;

 private:
  /// `Intern`, moving `value` into the dictionary when it is new.
  std::uint32_t InternValue(Value&& value);
  /// Called by copies: the dictionary is never mutated again.
  void MarkShared() const;

  Schema schema_;
  std::shared_ptr<ValueDictionary> dict_;
  std::vector<std::vector<std::uint32_t>> columns_;  // columns_[col][row]
};

}  // namespace trex

#endif  // TREX_TABLE_TABLE_H_
