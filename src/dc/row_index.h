// Hash-bucketed per-row violation probing for one denial constraint.
//
// `dc::RowViolates` answers "does this row participate in a violation?"
// with a full table scan — O(n) per call. Repair inner loops (rule
// firing, HoloClean featurization, holistic candidate probes) ask that
// question per row or per candidate, turning every repair into O(n²) and
// making 100k-row worlds unreachable. `ConstraintRowIndex` is the same
// hash-partition idea `FindViolations` already uses, kept *resident and
// maintainable* while the table mutates: rows are bucketed by the
// constraint's cross-tuple equality columns once (O(n)), and a probe
// tests only the row's join-key bucket — O(bucket) instead of O(n).
//
// Counted shape: when the predicates are cross-tuple equalities plus
// exactly one cross-tuple `!=` (every FD, and all bundled soccer and
// hospital DCs), each bucket also groups its rows by their value in the
// `!=` column. A pair in one bucket violates iff the two values sit in
// different groups; all nulls share one group, which is exactly
// `EvalOp`'s `!=` on nulls. `RowViolates` is then O(1): the bucket's size
// against the own group's size, the row itself excluded. Every other
// shape tests each bucket partner with `IsViolatedBy`.
//
// Rows are keyed by their cells' dictionary codes (table/table.h): bucket
// keys and group values are code tuples, hashed from the dictionary's
// per-entry `Value::Hash` and compared code by code, so a probe never
// hashes or compares a `Value`. Only `IsJoinKey` equalities key buckets,
// and the counted shape's `!=` must not mix int and double columns
// either; in those columns equal codes are equal values, so the index
// answers exactly as a `Value`-keyed index would. An int-vs-double
// predicate is a residual one, tested pair by pair.
//
// Exactness: a probe returns exactly what the nested-loop scan would.
// Cross-tuple equality on a null is false (see EvalOp in predicate.cc),
// so rows with null join keys are correctly unbucketed on that side —
// the same argument that makes `FindViolations`' hash fast path exact.
// Constraints with no join key (and unary constraints) fall back to the
// scan, so the index is safe for any DC.
//
// Mutation contract: the index reads the caller's table *live* for every
// column it does not index — such edits are visible immediately. After
// changing a cell in an indexed column (`IsKeyColumn`: a join-key column,
// or the counted shape's `!=` column), the owner must call `Rekey(row)`
// before the next probe so the row moves to its new bucket and group.

#ifndef TREX_DC_ROW_INDEX_H_
#define TREX_DC_ROW_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dc/constraint.h"
#include "dc/violation.h"
#include "table/table.h"

namespace trex::dc {

/// Resident partner-probe index for one constraint over a mutating
/// table (see file comment). The table and constraint must outlive the
/// index.
class ConstraintRowIndex {
 public:
  ConstraintRowIndex(const Table* table, const DenialConstraint* dc);

  /// True iff `row` currently participates in a violation of the
  /// constraint (as either tuple variable) — bit-identical to
  /// `dc::RowViolates(table, dc, row)`: O(1) for the counted shape,
  /// O(bucket) for other constraints with cross-tuple equalities.
  bool RowViolates(std::size_t row) const;

  /// Every current violation involving `row`, tagged `constraint_index`
  /// and normalized like `ViolationIndex` keeps them (`dedup` folds a
  /// symmetric constraint's ordered pair onto row1 < row2). May contain
  /// duplicates when both orientations violate; callers deduplicate by
  /// inserting into a set.
  std::vector<Violation> ViolationsOfRow(std::size_t row,
                                         std::size_t constraint_index,
                                         bool dedup) const;

  /// True iff `col` is indexed (a join-key column, or the counted
  /// shape's `!=` column): after writing such a column, call
  /// `Rekey(row)` for the changed row.
  bool IsKeyColumn(std::size_t col) const {
    return col < key_column_.size() && key_column_[col] != 0;
  }

  /// Re-buckets and re-groups `row` from the table's current values.
  void Rekey(std::size_t row);

  /// False when the constraint has no join key (probes fall back to the
  /// O(n) scan).
  bool uses_buckets() const { return use_buckets_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Chained hash index from 64-bit hashes to the dense ids 0, 1, 2, ...
  /// it hands out; the caller keeps what each id stands for.
  class IdChains {
   public:
    /// The id registered under `hash` for which `same(id)` holds, or
    /// kNone.
    template <typename Same>
    std::uint32_t Find(std::uint64_t hash, const Same& same) const {
      if (heads_.empty()) return kNone;
      for (std::uint32_t id = heads_[Slot(hash)]; id != kNone;
           id = next_[id]) {
        if (hashes_[id] == hash && same(id)) return id;
      }
      return kNone;
    }
    /// Registers the next id under `hash` and returns it.
    std::uint32_t Add(std::uint64_t hash);
    void Reserve(std::size_t n);

   private:
    std::size_t Slot(std::uint64_t hash) const {
      return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                      shift_);
    }
    void Rechain(std::size_t num_heads);

    int shift_ = 64;
    std::vector<std::uint32_t> heads_;  // power-of-two size
    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> hashes_;
  };

  /// One tuple variable's view of the table: each row sits in the bucket
  /// of its key over `key_cols` and, for the counted shape, in the group
  /// of (that bucket, its value in `neq_col`). Bucket and group ids are
  /// shared by both sides, so a key found through one side's columns
  /// names the same bucket on the other side.
  struct Side {
    std::vector<std::size_t> key_cols;
    std::size_t neq_col = 0;
    // Per row.
    std::vector<std::uint32_t> bucket_of;  // kNone: a null in the key
    std::vector<std::uint32_t> group_of;   // kNone unless counted
    std::vector<std::uint32_t> prev;       // bucket member list links
    std::vector<std::uint32_t> next;
    // Per bucket.
    std::vector<std::uint32_t> first;  // member list head
    std::vector<std::uint32_t> size;
    // Per group.
    std::vector<std::uint32_t> group_size;
  };

  int num_sides() const { return shared_side_ ? 1 : 2; }
  const Side& side(int s) const { return sides_[shared_side_ ? 0 : s]; }

  /// The bucket of `row`'s key on `side`, created if new; kNone when the
  /// key holds a null (null never joins).
  std::uint32_t FindOrAddBucket(std::size_t row, const Side& side);
  /// True iff `row`'s key codes on `side` are exactly its bucket's stored
  /// key codes.
  bool KeptBucket(std::size_t row, const Side& side) const;
  /// The group of (`bucket`, the value of `code`), created if new.
  std::uint32_t FindOrAddGroup(std::uint32_t bucket, std::uint32_t code);
  void Link(Side* side, std::size_t row, std::uint32_t bucket,
            std::uint32_t group);
  void Unlink(Side* side, std::size_t row);
  /// Counted probe: does a partner for ordered pairs in which `row` plays
  /// tuple variable `s` sit outside the row's group?
  bool HasCountedPartner(std::size_t row, int s) const;
  void CheckRow(std::size_t row) const;

  const Table* table_;
  const DenialConstraint* dc_;
  bool use_buckets_ = false;
  /// Join keys plus exactly one cross-tuple `!=` (see file comment).
  bool counted_ = false;
  /// Both tuple variables have the same key and `!=` columns, so one
  /// side serves both orientations.
  bool shared_side_ = false;
  std::array<Side, 2> sides_;
  /// Per table column: 1 iff `IsKeyColumn`.
  std::vector<std::uint8_t> key_column_;
  std::size_t key_width_ = 0;
  IdChains buckets_;
  std::vector<std::uint32_t> bucket_keys_;  // key_width_ codes per bucket
  IdChains groups_;
  std::vector<std::uint32_t> group_bucket_;
  std::vector<std::uint32_t> group_code_;
};

}  // namespace trex::dc

#endif  // TREX_DC_ROW_INDEX_H_
