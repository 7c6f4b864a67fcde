// Small string helpers shared across the library (no locale dependence).

#ifndef TREX_COMMON_STRING_UTIL_H_
#define TREX_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace trex {

/// Splits `input` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// ASCII-only case conversion.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Parses a full string as a signed 64-bit integer (no trailing junk).
[[nodiscard]] Result<std::int64_t> ParseInt64(std::string_view s);

/// Parses a full string as a double (no trailing junk). A NaN is an
/// error: no cell or constant holds one.
[[nodiscard]] Result<double> ParseDouble(std::string_view s);

/// Formats a double compactly: integers render without a decimal point,
/// other values with up to `precision` significant digits.
std::string FormatDouble(double value, int precision = 6);

/// True iff `s` consists only of ASCII digits with an optional leading
/// sign (and is non-empty).
bool LooksLikeInt(std::string_view s);

/// True iff `s` is a floating-point literal. A NaN spelling is one, so a
/// numeric CSV column holding "nan" is typed double and fails to load
/// instead of turning into strings.
bool LooksLikeDouble(std::string_view s);

/// Escapes a string for a CSV field per RFC 4180 (quotes when the value
/// contains the separator, a quote, or a newline).
std::string CsvEscape(std::string_view field, char sep = ',');

/// Escapes a string for embedding in a JSON string literal: quote,
/// backslash, and control characters (named escapes for \n \t \r, \uXXXX
/// for the rest).
std::string JsonEscape(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace trex

#endif  // TREX_COMMON_STRING_UTIL_H_
