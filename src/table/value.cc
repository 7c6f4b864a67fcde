#include "table/value.h"

#include <cmath>
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

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  // Equal, or a NaN on either side: a NaN sits above every number.
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

/// Exact: `i` is never rounded to a double.
int CompareIntDouble(std::int64_t i, double d) {
  if (std::isnan(d) || d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const auto whole = static_cast<std::int64_t>(d);  // truncation is exact
  if (i != whole) return i < whole ? -1 : 1;
  const double fraction = d - static_cast<double>(whole);
  return fraction > 0 ? -1 : (fraction < 0 ? 1 : 0);
}

}  // namespace

int Value::Compare(const Value& other) const {
  const ValueType a = type();
  const ValueType b = other.type();
  if (a == b) {
    switch (a) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt: {
        const std::int64_t x = std::get<std::int64_t>(repr_);
        const std::int64_t y = std::get<std::int64_t>(other.repr_);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case ValueType::kDouble:
        return CompareDoubles(std::get<double>(repr_),
                              std::get<double>(other.repr_));
      case ValueType::kString: {
        const int c = std::get<std::string>(repr_).compare(
            std::get<std::string>(other.repr_));
        return (c > 0) - (c < 0);
      }
    }
  }
  if (a == ValueType::kInt && b == ValueType::kDouble) {
    return CompareIntDouble(std::get<std::int64_t>(repr_),
                            std::get<double>(other.repr_));
  }
  if (a == ValueType::kDouble && b == ValueType::kInt) {
    return -CompareIntDouble(std::get<std::int64_t>(other.repr_),
                             std::get<double>(repr_));
  }
  // Different classes: null(0) < numeric(1) < string(2).
  const auto rank = [](ValueType t) { return (static_cast<int>(t) + 1) / 2; };
  return rank(a) < rank(b) ? -1 : 1;
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
      if (d < 0x1p63 && static_cast<std::int64_t>(d) == v) {
        return std::hash<double>{}(d);
      }
      return std::hash<std::int64_t>{}(v);
    }
    case ValueType::kDouble: {
      const double d = std::get<double>(repr_);
      // Every NaN compares equal to every other; +0.0 and -0.0 already
      // hash alike.
      return std::hash<double>{}(std::isnan(d) ? std::nan("") : d);
    }
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
  return a.type() == b.type() && a.Compare(b) == 0;
}

}  // namespace trex
