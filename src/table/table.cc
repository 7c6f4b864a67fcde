#include "table/table.h"

#include <algorithm>
#include <cmath>

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
  if (value.is_double()) {
    TREX_CHECK(!std::isnan(value.as_double())) << "a NaN is not a value";
    if (value.as_double() == 0.0) value = Value(0.0);
  }
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
      columns_(schema_.size()) {}

Table::Table(const Table& other)
    : schema_(other.schema_),
      dict_(other.dict_),
      columns_(other.columns_) {
  MarkShared();
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  dict_ = other.dict_;
  columns_ = other.columns_;
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

bool MixesIntAndDouble(const Schema& schema, std::size_t a, std::size_t b) {
  const ValueType x = schema.attribute(a).type;
  const ValueType y = schema.attribute(b).type;
  return x != y && (x == ValueType::kInt || x == ValueType::kDouble) &&
         (y == ValueType::kInt || y == ValueType::kDouble);
}

Status Table::CheckValue(std::size_t col, const Value& value) const {
  TREX_CHECK_LT(col, num_columns());
  const Attribute& attribute = schema_.attribute(col);
  if (value.is_null()) return Status::Ok();
  if (value.type() != attribute.type) {
    return Status::InvalidArgument(
        "column " + attribute.name + " holds " +
        ValueTypeToString(attribute.type) + ", not the " +
        ValueTypeToString(value.type()) + " " + value.ToString());
  }
  if (value.is_double() && std::isnan(value.as_double())) {
    return Status::InvalidArgument("column " + attribute.name +
                                   ": a NaN is not a value");
  }
  return Status::Ok();
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  for (std::size_t col = 0; col < row.size(); ++col) {
    TREX_RETURN_NOT_OK(CheckValue(col, row[col]));
  }
  for (std::size_t col = 0; col < row.size(); ++col) {
    columns_[col].push_back(InternValue(std::move(row[col])));
  }
  return Status::Ok();
}

void Table::SetCode(std::size_t row, std::size_t col, std::uint32_t code) {
  TREX_CHECK_LT(row, num_rows());
  TREX_CHECK_LT(col, num_columns());
  TREX_CHECK_LT(code, dict_->size());
  TREX_CHECK(dict_->type(code) == schema_.attributes()[col].type ||
             code == kNullCode)
      << ValueTypeToString(dict_->type(code)) << " in column " << col;
  columns_[col][row] = code;
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
      if (shared ? mine[row] != theirs[row]
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

/// 64-bit FNV-1a state fed by the fingerprint's serialization below.
struct Fnv64 {
  std::uint64_t h64 = 0xcbf29ce484222325ULL;
  void Mix(const void* data, std::size_t len) {
    h64 = Fnv1aBytes(data, len, h64);
  }
};

/// Serializes one value into the hash state: a type tag plus the value
/// bytes. String payloads are length-prefixed so the serialization stays
/// prefix-free within a cell — null, "", and 0 hash apart (type tags),
/// and no payload byte can masquerade as a tag. Cross-cell masquerading
/// (the old sequential scheme's ("a\x03","b") vs ("a","\x03b") trap)
/// is structurally impossible here: every cell is hashed in isolation.
void MixValue(Fnv64* h, const Value& v) {
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

/// A position-keyed hash of one cell. Seeding with (row, col) makes equal
/// values in different cells hash apart, so the XOR of all cell hashes is
/// order-insensitive yet position-sensitive.
std::uint64_t CellHash(std::size_t row, std::size_t col, const Value& v) {
  Fnv64 h;
  const std::uint64_t r = row;
  const std::uint64_t c = col;
  h.Mix(&r, sizeof(r));
  h.Mix(&c, sizeof(c));
  MixValue(&h, v);
  return h.h64;
}

}  // namespace

std::uint64_t Table::Fingerprint() const {
  const std::string schema_string = schema_.ToString();
  const std::uint64_t length = schema_string.size();
  Fnv64 schema_hash;
  schema_hash.Mix(&length, sizeof(length));
  schema_hash.Mix(schema_string.data(), schema_string.size());
  std::uint64_t fp64 = schema_hash.h64;
  // XOR is order-free: walk column by column.
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    for (std::size_t row = 0; row < columns_[col].size(); ++row) {
      fp64 ^= CellHash(row, col, dict_->value(columns_[col][row]));
    }
  }
  return fp64;
}

}  // namespace trex
