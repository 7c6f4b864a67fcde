#include "dc/predicate.h"

#include "common/hash.h"
#include "common/logging.h"

namespace trex::dc {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNeq:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* CompareOpToPrettyString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNeq:
      return "≠";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "≤";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return "≥";
  }
  return "?";
}

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNeq:
      return CompareOp::kNeq;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNeq;
    case CompareOp::kNeq:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

bool EvalOp(const Value& lhs, CompareOp op, const Value& rhs) {
  // Null semantics (paper §2.2, Example 2.4): a null cell is an *unknown*
  // value. Equality with anything is not assertible (false); inequality
  // against a concrete value holds (the coalition arithmetic of Example
  // 2.4 requires C1 to fire when t5[City] is nulled out against
  // t3[City]='Madrid'); inequality between two unknowns is not assertible.
  // Order comparisons require both sides known.
  if (lhs.is_null() || rhs.is_null()) {
    if (op == CompareOp::kNeq) {
      return lhs.is_null() != rhs.is_null();
    }
    return false;
  }
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNeq:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

const Value& Operand::Resolve(const Table& table, std::size_t row1,
                              std::size_t row2) const {
  if (!is_cell_) return constant_;
  const std::size_t row = tuple_index_ == 0 ? row1 : row2;
  return table.at(row, col_);
}

bool Operand::operator==(const Operand& other) const {
  if (is_cell_ != other.is_cell_) return false;
  if (is_cell_) {
    return tuple_index_ == other.tuple_index_ && col_ == other.col_;
  }
  // Null constants compare equal structurally here.
  if (constant_.is_null() || other.constant_.is_null()) {
    return constant_.is_null() && other.constant_.is_null();
  }
  return constant_ == other.constant_;
}

std::uint64_t Operand::Fingerprint() const {
  std::uint64_t h = Fnv1a(is_cell_ ? "cell" : "const");
  if (is_cell_) {
    h = HashCombine(h, static_cast<std::uint64_t>(tuple_index_));
    h = HashCombine(h, col_);
  } else {
    // Mirrors operator==: all null constants fingerprint alike.
    h = HashCombine(h, constant_.is_null() ? 0u : constant_.Hash());
  }
  return h;
}

std::string Operand::ToString(const Schema& schema) const {
  if (is_cell_) {
    const std::string attr = col_ < schema.size()
                                 ? schema.attribute(col_).name
                                 : "#" + std::to_string(col_);
    return "t" + std::to_string(tuple_index_ + 1) + "." + attr;
  }
  if (constant_.is_string()) return "'" + constant_.as_string() + "'";
  return constant_.ToString();
}

bool Predicate::Eval(const Table& table, std::size_t row1,
                     std::size_t row2) const {
  if (lhs.is_cell() && rhs.is_cell() &&
      (op == CompareOp::kEq || op == CompareOp::kNeq) &&
      !MixesIntAndDouble(table.schema(), lhs.col(), rhs.col())) {
    // EvalOp on the cells' codes: null is code 0, and equal values have
    // equal codes.
    const std::uint32_t a =
        table.code(lhs.tuple_index() == 0 ? row1 : row2, lhs.col());
    const std::uint32_t b =
        table.code(rhs.tuple_index() == 0 ? row1 : row2, rhs.col());
    if (a == kNullCode || b == kNullCode) {
      return op == CompareOp::kNeq && (a == kNullCode) != (b == kNullCode);
    }
    return (a == b) == (op == CompareOp::kEq);
  }
  const Value& a = lhs.Resolve(table, row1, row2);
  const Value& b = rhs.Resolve(table, row1, row2);
  return EvalOp(a, op, b);
}

bool Predicate::MentionsTuple(int tuple_index) const {
  return (lhs.is_cell() && lhs.tuple_index() == tuple_index) ||
         (rhs.is_cell() && rhs.tuple_index() == tuple_index);
}

bool Predicate::IsCrossTupleEquality() const {
  return op == CompareOp::kEq && lhs.is_cell() && rhs.is_cell() &&
         lhs.tuple_index() != rhs.tuple_index();
}

bool Predicate::operator==(const Predicate& other) const {
  return lhs == other.lhs && op == other.op && rhs == other.rhs;
}

std::uint64_t Predicate::Fingerprint() const {
  std::uint64_t h = lhs.Fingerprint();
  h = HashCombine(h, static_cast<std::uint64_t>(op));
  h = HashCombine(h, rhs.Fingerprint());
  return h;
}

std::string Predicate::ToString(const Schema& schema) const {
  return lhs.ToString(schema) + " " + CompareOpToString(op) + " " +
         rhs.ToString(schema);
}

std::string Predicate::ToPrettyString(const Schema& schema) const {
  return lhs.ToString(schema) + " " + CompareOpToPrettyString(op) + " " +
         rhs.ToString(schema);
}

}  // namespace trex::dc
