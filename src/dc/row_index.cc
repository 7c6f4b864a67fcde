#include "dc/row_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "dc/predicate.h"

namespace trex::dc {

std::uint32_t ConstraintRowIndex::IdChains::Add(std::uint64_t hash) {
  TREX_CHECK_LT(hashes_.size(), std::size_t{kNone});
  const auto id = static_cast<std::uint32_t>(hashes_.size());
  hashes_.push_back(hash);
  next_.push_back(kNone);
  if (hashes_.size() > heads_.size()) {
    Rechain(std::max<std::size_t>(16, 2 * heads_.size()));
  } else {
    const std::size_t slot = Slot(hash);
    next_[id] = heads_[slot];
    heads_[slot] = id;
  }
  return id;
}

void ConstraintRowIndex::IdChains::Reserve(std::size_t n) {
  hashes_.reserve(n);
  next_.reserve(n);
  if (n > heads_.size()) Rechain(std::bit_ceil(n));
}

void ConstraintRowIndex::IdChains::Rechain(std::size_t num_heads) {
  heads_.assign(num_heads, kNone);
  shift_ = 64 - std::countr_zero(num_heads);
  for (std::uint32_t id = 0; id < hashes_.size(); ++id) {
    const std::size_t slot = Slot(hashes_[id]);
    next_[id] = heads_[slot];
    heads_[slot] = id;
  }
}

ConstraintRowIndex::ConstraintRowIndex(const Table* table,
                                       const DenialConstraint* dc)
    : table_(table), dc_(dc) {
  TREX_CHECK(table_ != nullptr);
  TREX_CHECK(dc_ != nullptr);
  if (dc_->arity() != 2) return;
  // The same join-key convention as the detector's hash fast path —
  // shared extraction keeps probe and detector agreeing on what joins.
  CrossTupleKeyColumns cols =
      CrossTupleEqualityColumns(*dc_, table_->schema());
  if (cols.t1_cols.empty()) return;
  use_buckets_ = true;
  key_width_ = cols.t1_cols.size();
  sides_[0].key_cols = std::move(cols.t1_cols);
  sides_[1].key_cols = std::move(cols.t2_cols);

  // Counted shape: the only other predicate is one cross-tuple `!=`.
  const Predicate* neq = nullptr;
  std::size_t num_residual = 0;
  for (const Predicate& p : dc_->predicates()) {
    if (IsJoinKey(p, table_->schema())) continue;
    ++num_residual;
    if (p.op == CompareOp::kNeq && p.lhs.is_cell() && p.rhs.is_cell() &&
        p.lhs.tuple_index() != p.rhs.tuple_index() &&
        !MixesIntAndDouble(table_->schema(), p.lhs.col(), p.rhs.col())) {
      neq = &p;
    }
  }
  counted_ = num_residual == 1 && neq != nullptr;
  if (counted_) {
    sides_[0].neq_col = neq->lhs.tuple_index() == 0 ? neq->lhs.col()
                                                    : neq->rhs.col();
    sides_[1].neq_col = neq->lhs.tuple_index() == 0 ? neq->rhs.col()
                                                    : neq->lhs.col();
  }
  shared_side_ = sides_[0].key_cols == sides_[1].key_cols &&
                 sides_[0].neq_col == sides_[1].neq_col;
  key_column_.assign(table_->num_columns(), 0);
  for (const Side& side : sides_) {
    for (std::size_t col : side.key_cols) key_column_[col] = 1;
    if (counted_) key_column_[side.neq_col] = 1;
  }

  const std::size_t n = table_->num_rows();
  TREX_CHECK_LT(n, std::size_t{kNone});
  buckets_.Reserve(n);
  if (counted_) groups_.Reserve(n);
  for (int s = 0; s < num_sides(); ++s) {
    Side& side = sides_[s];
    side.bucket_of.assign(n, kNone);
    side.group_of.assign(n, kNone);
    side.prev.assign(n, kNone);
    side.next.assign(n, kNone);
  }
  for (int s = 0; s < num_sides(); ++s) {
    Side& side = sides_[s];
    for (std::size_t row = 0; row < n; ++row) {
      const std::uint32_t bucket = FindOrAddBucket(row, side);
      Link(&side, row, bucket,
           counted_ && bucket != kNone
               ? FindOrAddGroup(bucket, table_->code(row, side.neq_col))
               : kNone);
    }
  }
}

std::uint32_t ConstraintRowIndex::FindOrAddBucket(std::size_t row,
                                                  const Side& side) {
  const ValueDictionary& dict = table_->dictionary();
  std::size_t hash = 0x811c9dc5;
  for (std::size_t col : side.key_cols) {
    const std::uint32_t code = table_->code(row, col);
    if (code == kNullCode) return kNone;  // null never joins
    hash = HashCombine(hash, dict.value_hash(code));
  }
  // Stored keys are compared against the table: rows keep no key copy.
  const std::uint32_t found = buckets_.Find(hash, [&](std::uint32_t bucket) {
    const std::uint32_t* key = &bucket_keys_[bucket * key_width_];
    for (std::size_t i = 0; i < key_width_; ++i) {
      if (table_->code(row, side.key_cols[i]) != key[i]) {
        return false;
      }
    }
    return true;
  });
  if (found != kNone) return found;
  const std::uint32_t bucket = buckets_.Add(hash);
  for (std::size_t col : side.key_cols) {
    bucket_keys_.push_back(table_->code(row, col));
  }
  for (int s = 0; s < num_sides(); ++s) {
    sides_[s].first.push_back(kNone);
    sides_[s].size.push_back(0);
  }
  return bucket;
}

std::uint32_t ConstraintRowIndex::FindOrAddGroup(std::uint32_t bucket,
                                                 std::uint32_t code) {
  // Every null is in one group: null != null is false.
  const std::uint64_t hash =
      HashCombine(table_->dictionary().value_hash(code), bucket);
  const std::uint32_t found = groups_.Find(hash, [&](std::uint32_t group) {
    return group_bucket_[group] == bucket && group_code_[group] == code;
  });
  if (found != kNone) return found;
  const std::uint32_t group = groups_.Add(hash);
  group_bucket_.push_back(bucket);
  group_code_.push_back(code);
  for (int s = 0; s < num_sides(); ++s) sides_[s].group_size.push_back(0);
  return group;
}

void ConstraintRowIndex::Link(Side* side, std::size_t row,
                              std::uint32_t bucket, std::uint32_t group) {
  side->bucket_of[row] = bucket;
  side->group_of[row] = group;
  if (bucket == kNone) return;
  const std::uint32_t head = side->first[bucket];
  side->prev[row] = kNone;
  side->next[row] = head;
  if (head != kNone) side->prev[head] = static_cast<std::uint32_t>(row);
  side->first[bucket] = static_cast<std::uint32_t>(row);
  ++side->size[bucket];
  if (group != kNone) ++side->group_size[group];
}

void ConstraintRowIndex::Unlink(Side* side, std::size_t row) {
  const std::uint32_t bucket = side->bucket_of[row];
  if (bucket == kNone) return;
  const std::uint32_t prev = side->prev[row];
  const std::uint32_t next = side->next[row];
  if (prev != kNone) {
    side->next[prev] = next;
  } else {
    side->first[bucket] = next;
  }
  if (next != kNone) side->prev[next] = prev;
  --side->size[bucket];
  if (side->group_of[row] != kNone) --side->group_size[side->group_of[row]];
  side->bucket_of[row] = kNone;
  side->group_of[row] = kNone;
}

void ConstraintRowIndex::CheckRow(std::size_t row) const {
  TREX_CHECK_LT(row, side(0).bucket_of.size());
}

bool ConstraintRowIndex::KeptBucket(std::size_t row, const Side& side) const {
  const std::uint32_t bucket = side.bucket_of[row];
  if (bucket == kNone) return false;
  const std::uint32_t* key = &bucket_keys_[bucket * key_width_];
  for (std::size_t i = 0; i < key_width_; ++i) {
    if (table_->code(row, side.key_cols[i]) != key[i]) return false;
  }
  return true;
}

void ConstraintRowIndex::Rekey(std::size_t row) {
  if (!use_buckets_) return;
  CheckRow(row);
  for (int s = 0; s < num_sides(); ++s) {
    Side& side = sides_[s];
    // A key whose codes are the bucket's stored codes can only find that
    // bucket (no other bucket matched them when either was added), and
    // likewise for a group: skip the hashing in that common case.
    const std::uint32_t bucket = KeptBucket(row, side)
                                     ? side.bucket_of[row]
                                     : FindOrAddBucket(row, side);
    std::uint32_t group = kNone;
    if (counted_ && bucket != kNone) {
      const std::uint32_t code = table_->code(row, side.neq_col);
      group = bucket == side.bucket_of[row] &&
                      group_code_[side.group_of[row]] == code
                  ? side.group_of[row]
                  : FindOrAddGroup(bucket, code);
    }
    if (bucket == side.bucket_of[row] && group == side.group_of[row]) {
      continue;
    }
    Unlink(&side, row);
    Link(&side, row, bucket, group);
  }
}

bool ConstraintRowIndex::HasCountedPartner(std::size_t row, int s) const {
  const Side& own = side(s);
  const Side& other = side(1 - s);
  const std::uint32_t bucket = own.bucket_of[row];
  if (bucket == kNone) return false;
  // Partners: the other side's members of the bucket outside the row's
  // group, and never the row itself.
  const std::uint32_t group = own.group_of[row];
  std::uint32_t partners = other.size[bucket] - other.group_size[group];
  if (other.bucket_of[row] == bucket && other.group_of[row] != group) {
    --partners;
  }
  return partners > 0;
}

bool ConstraintRowIndex::RowViolates(std::size_t row) const {
  if (dc_->arity() == 1) return dc_->IsViolatedBy(*table_, row, row);
  if (!use_buckets_) {
    for (std::size_t other = 0; other < table_->num_rows(); ++other) {
      if (other == row) continue;
      if (dc_->IsViolatedBy(*table_, row, other) ||
          dc_->IsViolatedBy(*table_, other, row)) {
        return true;
      }
    }
    return false;
  }
  CheckRow(row);
  if (counted_) {
    // One side serves both orientations of a shared-side constraint.
    return HasCountedPartner(row, 0) ||
           (!shared_side_ && HasCountedPartner(row, 1));
  }
  // Partners for ordered pairs (row, other) are the t2-side members of
  // the bucket of this row's t1-side key; s == 1 is the mirror for pairs
  // (other, row).
  for (int s = 0; s < 2; ++s) {
    const std::uint32_t bucket = side(s).bucket_of[row];
    if (bucket == kNone) continue;
    const Side& other_side = side(1 - s);
    for (std::uint32_t other = other_side.first[bucket]; other != kNone;
         other = other_side.next[other]) {
      if (other == row) continue;
      if (s == 0 ? dc_->IsViolatedBy(*table_, row, other)
                 : dc_->IsViolatedBy(*table_, other, row)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<Violation> ConstraintRowIndex::ViolationsOfRow(
    std::size_t row, std::size_t constraint_index, bool dedup) const {
  std::vector<Violation> out;
  if (dc_->arity() == 1) {
    if (dc_->IsViolatedBy(*table_, row, row)) {
      out.push_back(Violation{constraint_index, row, row});
    }
    return out;
  }
  const auto emit = [&](std::size_t row1, std::size_t row2) {
    if (dedup && row2 < row1) std::swap(row1, row2);
    out.push_back(Violation{constraint_index, row1, row2});
  };
  if (!use_buckets_) {
    for (std::size_t other = 0; other < table_->num_rows(); ++other) {
      if (other == row) continue;
      if (dc_->IsViolatedBy(*table_, row, other)) emit(row, other);
      if (dc_->IsViolatedBy(*table_, other, row)) emit(other, row);
    }
    return out;
  }
  CheckRow(row);
  for (int s = 0; s < 2; ++s) {
    const Side& own = side(s);
    const std::uint32_t bucket = own.bucket_of[row];
    if (bucket == kNone) continue;
    const Side& other_side = side(1 - s);
    for (std::uint32_t other = other_side.first[bucket]; other != kNone;
         other = other_side.next[other]) {
      if (other == row) continue;
      if (counted_) {
        // Every partner outside the row's group violates; its own group
        // never does.
        if (other_side.group_of[other] == own.group_of[row]) continue;
      } else if (s == 0 ? !dc_->IsViolatedBy(*table_, row, other)
                        : !dc_->IsViolatedBy(*table_, other, row)) {
        continue;
      }
      if (s == 0) {
        emit(row, other);
      } else {
        emit(other, row);
      }
    }
  }
  return out;
}

}  // namespace trex::dc
