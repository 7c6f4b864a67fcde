// `Value`: the dynamically-typed cell value used throughout T-REx.
//
// A value is null, a 64-bit integer, a double, or a string. Nulls are
// first-class because the Shapley cell game (paper §2.2) removes cells from
// a coalition by setting them to null; predicate evaluation gives nulls
// SQL-style semantics (see dc/predicate.h) while `Value` itself provides
// plain structural equality so values can live in hash maps.

#ifndef TREX_TABLE_VALUE_H_
#define TREX_TABLE_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace trex {

/// The runtime type of a `Value`.
enum class ValueType : std::uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

/// Returns "null", "int", "double", or "string".
const char* ValueTypeToString(ValueType type);

/// A single table cell value. Immutable once constructed; cheap to copy
/// for numeric payloads, string payloads share no state (value semantics).
class Value {
 public:
  /// Constructs a null value.
  Value() : repr_(std::monostate{}) {}

  /// Typed constructors (implicit on purpose — literals read naturally in
  /// row builders: `table.AppendRow({"Real Madrid", 2017, 1})`).
  Value(std::int64_t v) : repr_(v) {}         // NOLINT(runtime/explicit)
  Value(int v) : repr_(std::int64_t{v}) {}    // NOLINT(runtime/explicit)
  Value(double v) : repr_(v) {}               // NOLINT(runtime/explicit)
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT(runtime/explicit)

  /// Named constructor for the null value.
  static Value Null() { return Value(); }

  /// The runtime type tag.
  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }

  /// True iff this is the null value.
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  /// Typed accessors; calling the wrong one aborts (programmer error).
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Equality and order under `Compare`. An int equals a double that
  /// denotes the same number exactly: 1 equals 1.0, but int 2^53 + 1
  /// does not equal double 2^53.
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Total order: null < numbers < strings. Numbers compare by exact
  /// value, with no rounding of an int to a double; -0.0 equals +0.0,
  /// and a NaN (which no table or parsed constant holds) sits above
  /// every number and equals every NaN. Strings compare bytewise.
  /// Returns -1, 0 or 1.
  int Compare(const Value& other) const;

  /// Hash consistent with operator== (an int and the double of the same
  /// number hash alike).
  std::size_t Hash() const;

  /// Renders the value: "∅" for null, decimal for numerics, raw bytes for
  /// strings.
  std::string ToString() const;

  /// Parses `text` as the given type; empty text parses to null.
  [[nodiscard]] static Result<Value> Parse(std::string_view text, ValueType type);

  /// Infers the narrowest type (int, then double, then string) and parses.
  static Value Infer(std::string_view text);

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> repr_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// Same type and equal under `Compare`: the equality of `Table` codes.
/// It exists because `operator==` equates an int with the double of the
/// same number, and a typed column keeps the two apart.
bool ExactlyEqual(const Value& a, const Value& b);

/// std::hash adapter so `Value` can key unordered containers.
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace trex

#endif  // TREX_TABLE_VALUE_H_
