#include "table/value.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace trex {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

std::int64_t Value::as_int() const {
  TREX_CHECK(is_int()) << "Value is " << ValueTypeToString(type());
  return std::get<std::int64_t>(repr_);
}

double Value::as_double() const {
  TREX_CHECK(is_double()) << "Value is " << ValueTypeToString(type());
  return std::get<double>(repr_);
}

const std::string& Value::as_string() const {
  TREX_CHECK(is_string()) << "Value is " << ValueTypeToString(type());
  return std::get<std::string>(repr_);
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(repr_));
  if (is_double()) return std::get<double>(repr_);
  TREX_CHECK(false) << "Value is not numeric: " << ToString();
  return 0;
}

int Value::Compare(const Value& other) const {
  const bool a_num = is_numeric();
  const bool b_num = other.is_numeric();
  if (a_num && b_num) {
    // Compare ints exactly when both are ints; otherwise numerically.
    if (is_int() && other.is_int()) {
      const std::int64_t a = std::get<std::int64_t>(repr_);
      const std::int64_t b = std::get<std::int64_t>(other.repr_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsNumeric();
    const double b = other.AsNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Order classes: null(0) < numeric(1) < string(2).
  auto cls = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  const int ca = cls(*this);
  const int cb = cls(other);
  if (ca != cb) return ca < cb ? -1 : 1;
  if (ca == 0) return 0;  // both null
  // Both strings.
  const std::string& a = std::get<std::string>(repr_);
  const std::string& b = std::get<std::string>(other.repr_);
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kInt: {
      // Hash via the double representation when it is exact, so that
      // Value(1) and Value(1.0) — which compare equal — hash alike.
      const std::int64_t v = std::get<std::int64_t>(repr_);
      const double d = static_cast<double>(v);
      if (static_cast<std::int64_t>(d) == v) {
        return std::hash<double>{}(d);
      }
      return std::hash<std::int64_t>{}(v);
    }
    case ValueType::kDouble:
      return std::hash<double>{}(std::get<double>(repr_));
    case ValueType::kString:
      return static_cast<std::size_t>(Fnv1a(std::get<std::string>(repr_)));
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "∅";
    case ValueType::kInt:
      return std::to_string(std::get<std::int64_t>(repr_));
    case ValueType::kDouble:
      return FormatDouble(std::get<double>(repr_));
    case ValueType::kString:
      return std::get<std::string>(repr_);
  }
  return "?";
}

Result<Value> Value::Parse(std::string_view text, ValueType type) {
  const std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      TREX_ASSIGN_OR_RETURN(std::int64_t v, ParseInt64(trimmed));
      return Value(v);
    }
    case ValueType::kDouble: {
      TREX_ASSIGN_OR_RETURN(double v, ParseDouble(trimmed));
      return Value(v);
    }
    case ValueType::kString:
      return Value(std::string(text));
  }
  return Status::InvalidArgument("unknown value type");
}

Value Value::Infer(std::string_view text) {
  const std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return Value::Null();
  if (LooksLikeInt(trimmed)) {
    auto parsed = ParseInt64(trimmed);
    if (parsed.ok()) return Value(*parsed);
  }
  if (LooksLikeDouble(trimmed)) {
    auto parsed = ParseDouble(trimmed);
    if (parsed.ok()) return Value(*parsed);
  }
  return Value(std::string(text));
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

bool ExactlyEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.as_int() == b.as_int();
    case ValueType::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

}  // namespace trex
