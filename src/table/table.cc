#include "table/table.h"

#include <algorithm>

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

ValueDictionary::ValueDictionary() {
  Rehash(16);
  TREX_CHECK_EQ(Add(Value::Null()), kNullCode);
}

std::uint32_t ValueDictionary::Find(const Value& value) const {
  if (value.is_null()) return kNullCode;
  const std::size_t hash = value.Hash();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = Slot(hash);; slot = (slot + 1) & mask) {
    const std::uint32_t code = slots_[slot];
    if (code == kAbsent) return kAbsent;
    if (hashes_[code] == hash && ExactlyEqual(this->value(code), value)) {
      return code;
    }
  }
}

std::uint32_t ValueDictionary::Add(Value value) {
  TREX_CHECK_LT(size(), std::size_t{kAbsent});
  const auto code = static_cast<std::uint32_t>(size());
  const std::uint64_t shifted = std::uint64_t{code} + 8;
  const auto chunk = static_cast<std::size_t>(std::bit_width(shifted)) - 4;
  if (chunks_[chunk] == nullptr) {
    chunks_[chunk] = std::make_unique<Value[]>(std::size_t{8} << chunk);
  }
  hashes_.push_back(value.Hash());
  types_.push_back(value.type());
  chunks_[chunk][shifted - (std::uint64_t{8} << chunk)] = std::move(value);
  if (2 * size() > slots_.size()) {
    Rehash(2 * slots_.size());
  } else {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = Slot(hashes_[code]);
    while (slots_[slot] != kAbsent) slot = (slot + 1) & mask;
    slots_[slot] = code;
  }
  return code;
}

void ValueDictionary::Rehash(std::size_t num_slots) {
  slots_.assign(num_slots, kAbsent);
  shift_ = 64 - std::countr_zero(num_slots);
  const std::size_t mask = num_slots - 1;
  for (std::uint32_t code = 0; code < size(); ++code) {
    std::size_t slot = Slot(hashes_[code]);
    while (slots_[slot] != kAbsent) slot = (slot + 1) & mask;
    slots_[slot] = code;
  }
}

std::shared_ptr<ValueDictionary> ValueDictionary::Clone(
    std::shared_ptr<const ValueDictionary> self) const {
  std::shared_ptr<ValueDictionary> clone(new ValueDictionary());
  for (std::size_t chunk = 0;
       chunk < kNumChunks && chunks_[chunk] != nullptr;
       ++chunk) {
    const std::size_t chunk_size = std::size_t{8} << chunk;
    clone->chunks_[chunk] = std::make_unique<Value[]>(chunk_size);
    std::copy(chunks_[chunk].get(), chunks_[chunk].get() + chunk_size,
              clone->chunks_[chunk].get());
  }
  clone->hashes_ = hashes_;
  clone->types_ = types_;
  clone->slots_ = slots_;
  clone->shift_ = shift_;
  clone->parent_ = std::move(self);
  return clone;
}

Table::Table(Schema schema)
    : schema_(std::move(schema)),
      dict_(std::make_shared<ValueDictionary>()),
      columns_(schema_.size()),
      num_doubles_(schema_.size(), 0) {}

Table::Table(const Table& other)
    : schema_(other.schema_),
      dict_(other.dict_),
      columns_(other.columns_),
      num_doubles_(other.num_doubles_) {
  MarkShared();
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  dict_ = other.dict_;
  columns_ = other.columns_;
  num_doubles_ = other.num_doubles_;
  MarkShared();
  return *this;
}

void Table::MarkShared() const {
  // A moved-from table holds no dictionary.
  if (dict_ != nullptr) dict_->shared_.store(true, std::memory_order_relaxed);
}

std::uint32_t Table::Intern(const Value& value) {
  const std::uint32_t found =
      dict_ != nullptr ? dict_->Find(value) : ValueDictionary::kAbsent;
  return found != ValueDictionary::kAbsent ? found : InternValue(Value(value));
}

std::uint32_t Table::InternValue(Value&& value) {
  if (dict_ == nullptr) dict_ = std::make_shared<ValueDictionary>();
  const std::uint32_t found = dict_->Find(value);
  if (found != ValueDictionary::kAbsent) return found;
  if (dict_->shared_.load(std::memory_order_relaxed)) {
    dict_ = dict_->Clone(dict_);
  }
  return dict_->Add(std::move(value));
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  for (std::size_t col = 0; col < row.size(); ++col) {
    const std::uint32_t code = InternValue(std::move(row[col]));
    columns_[col].push_back(code);
    num_doubles_[col] += dict_->is_double(code);
  }
  return Status::Ok();
}

void Table::SetCode(std::size_t row, std::size_t col, std::uint32_t code) {
  TREX_CHECK_LT(row, num_rows());
  TREX_CHECK_LT(col, num_columns());
  TREX_CHECK_LT(code, dict_->size());
  std::uint32_t& cell = columns_[col][row];
  num_doubles_[col] =
      num_doubles_[col] - dict_->is_double(cell) + dict_->is_double(code);
  cell = code;
}

bool Table::operator==(const Table& other) const {
  if (schema_ != other.schema_ || num_rows() != other.num_rows()) {
    return false;
  }
  const bool shared = SharesDictionary(other);
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    const std::vector<std::uint32_t>& mine = columns_[col];
    const std::vector<std::uint32_t>& theirs = other.columns_[col];
    for (std::size_t row = 0; row < mine.size(); ++row) {
      if (shared ? !dict_->SameValue(mine[row], theirs[row])
                 : dict_->value(mine[row]) !=
                       other.dict_->value(theirs[row])) {
        return false;
      }
    }
  }
  return true;
}

CellRef Table::FromLinearIndex(std::size_t index) const {
  TREX_CHECK_LT(index, num_cells());
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
  // XOR is order-free: walk column by column.
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    for (std::size_t row = 0; row < columns_[col].size(); ++row) {
      Fnv64 cell;
      MixCell(&cell, row, col, dict_->value(columns_[col][row]));
      fp64 ^= cell.h64;
    }
  }
  return fp64;
}

void Table::DualFingerprint(std::uint64_t* fp64, Hash128* fp128) const {
  DualHash combined = SchemaHash(schema_);
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    for (std::size_t row = 0; row < columns_[col].size(); ++row) {
      const DualHash cell =
          CellContentHash(row, col, dict_->value(columns_[col][row]));
      combined.fp64 ^= cell.fp64;
      combined.fp128 ^= cell.fp128;
    }
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
