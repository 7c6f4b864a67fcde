#include "table/table.h"

#include "common/hash.h"
#include "common/logging.h"

namespace trex {

std::string CellRef::ToString() const {
  return "(" + std::to_string(row) + "," + std::to_string(col) + ")";
}

std::string CellRef::ToString(const Schema& schema) const {
  if (col < schema.size()) {
    return "t" + std::to_string(row + 1) + "[" + schema.attribute(col).name +
           "]";
  }
  return ToString();
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  for (auto& value : row) cells_.push_back(std::move(value));
  return Status::Ok();
}

const Value& Table::at(std::size_t row, std::size_t col) const {
  TREX_CHECK_LT(row, num_rows());
  TREX_CHECK_LT(col, num_columns());
  return cells_[row * num_columns() + col];
}

void Table::Set(std::size_t row, std::size_t col, Value value) {
  TREX_CHECK_LT(row, num_rows());
  TREX_CHECK_LT(col, num_columns());
  cells_[row * num_columns() + col] = std::move(value);
}

CellRef Table::FromLinearIndex(std::size_t index) const {
  TREX_CHECK_LT(index, cells_.size());
  return CellRef{index / num_columns(), index % num_columns()};
}

std::vector<CellRef> Table::AllCells() const {
  std::vector<CellRef> cells;
  cells.reserve(num_cells());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    for (std::size_t c = 0; c < num_columns(); ++c) {
      cells.push_back(CellRef{r, c});
    }
  }
  return cells;
}

const Value& Table::Cell(std::size_t row, const std::string& attribute) const {
  auto col = schema_.IndexOf(attribute);
  TREX_CHECK(col.ok()) << col.status().ToString();
  return at(row, *col);
}

namespace {

/// One FNV pass feeding both fingerprint widths at once (tables are
/// hashed on the memo's hot path; one traversal, two digests).
struct DualFnv {
  std::uint64_t h64 = 0xcbf29ce484222325ULL;
  Fnv1a128 h128;

  void Mix(const void* data, std::size_t len) {
    h64 = Fnv1aBytes(data, len, h64);
    h128.Mix(data, len);
  }
};

struct DualHash {
  std::uint64_t fp64 = 0;
  Hash128 fp128;
};

/// Serializes one value into the hash state: a type tag plus the value
/// bytes. String payloads are length-prefixed so the serialization stays
/// prefix-free within a cell — null, "", and 0 hash apart (type tags),
/// and no payload byte can masquerade as a tag. Cross-cell masquerading
/// (the old sequential scheme's ("a\x03","b") vs ("a","\x03b") trap)
/// is structurally impossible here: every cell is hashed in isolation.
template <typename Hasher>
void MixValue(Hasher* h, const Value& v) {
  const std::uint8_t tag = static_cast<std::uint8_t>(v.type());
  h->Mix(&tag, 1);
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      const std::int64_t x = v.as_int();
      h->Mix(&x, sizeof(x));
      break;
    }
    case ValueType::kDouble: {
      const double x = v.as_double();
      h->Mix(&x, sizeof(x));
      break;
    }
    case ValueType::kString: {
      const std::uint64_t length = v.as_string().size();
      h->Mix(&length, sizeof(length));
      h->Mix(v.as_string().data(), v.as_string().size());
      break;
    }
  }
}

/// The XOR unit of the table fingerprints: a position-keyed hash of one
/// cell. Seeding with (row, col) makes equal values in different cells
/// hash apart, so the XOR of all cell hashes is order-insensitive yet
/// position-sensitive — and any single-cell change shifts the combined
/// fingerprint by exactly H(pos, old) ^ H(pos, new). `Hasher` is
/// `DualFnv` on the memo path (which needs both widths) or a bare
/// 64-bit state for single-width callers (the router key), who must
/// not pay for the 128-bit multiplies.
template <typename Hasher>
void MixCell(Hasher* h, std::size_t row, std::size_t col, const Value& v) {
  const std::uint64_t r = row;
  const std::uint64_t c = col;
  h->Mix(&r, sizeof(r));
  h->Mix(&c, sizeof(c));
  MixValue(h, v);
}

DualHash CellContentHash(std::size_t row, std::size_t col, const Value& v) {
  DualFnv h;
  MixCell(&h, row, col, v);
  return {h.h64, h.h128.Digest()};
}

/// 64-bit-only FNV state with the `Mix` shape `MixCell` expects.
struct Fnv64 {
  std::uint64_t h64 = 0xcbf29ce484222325ULL;
  void Mix(const void* data, std::size_t len) {
    h64 = Fnv1aBytes(data, len, h64);
  }
};

template <typename Hasher>
void MixSchema(Hasher* h, const Schema& schema) {
  const std::string schema_string = schema.ToString();
  const std::uint64_t length = schema_string.size();
  h->Mix(&length, sizeof(length));
  h->Mix(schema_string.data(), schema_string.size());
}

DualHash SchemaHash(const Schema& schema) {
  DualFnv h;
  MixSchema(&h, schema);
  return {h.h64, h.h128.Digest()};
}

}  // namespace

std::uint64_t Table::Fingerprint() const {
  // Single-width traversal: callers that only key on 64 bits (the
  // engine router) must not pay the 128-bit per-byte multiplies.
  Fnv64 schema_hash;
  MixSchema(&schema_hash, schema_);
  std::uint64_t fp64 = schema_hash.h64;
  const std::size_t columns = num_columns();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Fnv64 cell;
    MixCell(&cell, i / columns, i % columns, cells_[i]);
    fp64 ^= cell.h64;
  }
  return fp64;
}

void Table::DualFingerprint(std::uint64_t* fp64, Hash128* fp128) const {
  DualHash combined = SchemaHash(schema_);
  const std::size_t columns = num_columns();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const DualHash cell = CellContentHash(i / columns, i % columns, cells_[i]);
    combined.fp64 ^= cell.fp64;
    combined.fp128 ^= cell.fp128;
  }
  *fp64 = combined.fp64;
  *fp128 = combined.fp128;
}

void Table::DeltaFingerprint(std::uint64_t base64, const Hash128& base128,
                             std::span<const CellWrite> writes,
                             std::uint64_t* fp64, Hash128* fp128) const {
  std::uint64_t h64 = base64;
  Hash128 h128 = base128;
  for (const CellWrite& write : writes) {
    const FingerprintDelta delta = WriteDelta(write.cell, write.value);
    h64 ^= delta.fp64;
    h128 ^= delta.fp128;
  }
  *fp64 = h64;
  *fp128 = h128;
}

FingerprintDelta Table::WriteDelta(CellRef cell, const Value& value) const {
  const DualHash old_hash = CellContentHash(cell.row, cell.col, at(cell));
  const DualHash new_hash = CellContentHash(cell.row, cell.col, value);
  return FingerprintDelta{old_hash.fp64 ^ new_hash.fp64,
                          old_hash.fp128 ^ new_hash.fp128};
}

}  // namespace trex
