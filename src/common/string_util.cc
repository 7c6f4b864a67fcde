#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace trex {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimView(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(
                          static_cast<unsigned char>(c)));
  return out;
}

Result<std::int64_t> ParseInt64(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) return Status::ParseError("empty integer literal");
  std::int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

namespace {

/// `s` as a floating-point literal, NaN spellings included, or nullopt.
std::optional<double> StrtodWhole(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not fully supported everywhere; use
  // strtod on a bounded copy.
  const std::string copy(s);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

Result<double> ParseDouble(std::string_view s) {
  const std::optional<double> value = StrtodWhole(s);
  if (!value.has_value()) {
    return Status::ParseError("not a double: '" + std::string(TrimView(s)) +
                              "'");
  }
  if (std::isnan(*value)) {
    return Status::ParseError("NaN is not a value: '" +
                              std::string(TrimView(s)) + "'");
  }
  return *value;
}

std::string FormatDouble(double value, int precision) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.*g", precision, value);
}

bool LooksLikeInt(std::string_view s) {
  s = TrimView(s);
  if (s.empty()) return false;
  std::size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(std::string_view s) {
  return StrtodWhole(s).has_value();
}

std::string CsvEscape(std::string_view field, char sep) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

}  // namespace trex
