#include "table/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace trex {
namespace {

/// Splits CSV text into records of raw (unquoted) fields, honoring RFC
/// 4180 quoting ("" escapes a quote inside a quoted field; separators and
/// newlines inside quotes are literal).
Result<std::vector<std::vector<std::string>>> Tokenize(std::string_view text,
                                                       char sep) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool any_record_content = false;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    any_record_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      any_record_content = true;
    } else if (c == sep) {
      end_field();
      any_record_content = true;
    } else if (c == '\n') {
      // Skip entirely empty trailing lines (e.g. final newline).
      if (!any_record_content && field.empty() && record.empty()) continue;
      end_record();
    } else if (c == '\r') {
      // Tolerate CRLF; handled when the '\n' arrives.
      continue;
    } else {
      field.push_back(c);
      field_started = true;
      any_record_content = true;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted CSV field");
  }
  if (any_record_content || !field.empty() || !record.empty()) {
    end_record();
  }
  return records;
}

bool IsNullToken(const std::string& raw, const CsvOptions& options) {
  const std::string trimmed = Trim(raw);
  return trimmed.empty() || trimmed == options.null_marker;
}

ValueType InferColumnType(
    const std::vector<std::vector<std::string>>& records, std::size_t col,
    const CsvOptions& options) {
  bool all_int = true;
  bool all_double = true;
  bool any_value = false;
  for (std::size_t r = 1; r < records.size(); ++r) {
    if (col >= records[r].size()) continue;
    const std::string& raw = records[r][col];
    if (IsNullToken(raw, options)) continue;
    any_value = true;
    if (!LooksLikeInt(raw)) all_int = false;
    if (!LooksLikeDouble(raw)) all_double = false;
    if (!all_int && !all_double) break;
  }
  if (!any_value) return ValueType::kString;
  if (all_int) return ValueType::kInt;
  if (all_double) return ValueType::kDouble;
  return ValueType::kString;
}

/// A double's field text: it reads back as the same double, and as a
/// double (an integral value gets ".0").
std::string DoubleField(double value) {
  std::string text;
  for (int precision = 15; precision <= 17; ++precision) {
    text = StrFormat("%.*g", precision, value);
    if (std::strtod(text.c_str(), nullptr) == value) break;
  }
  if (LooksLikeInt(text)) text += ".0";
  return text;
}

}  // namespace

Result<Table> ReadCsv(std::string_view text, const CsvOptions& options) {
  TREX_ASSIGN_OR_RETURN(auto records, Tokenize(text, options.separator));
  if (records.empty()) {
    return Status::ParseError("CSV input has no header record");
  }
  const std::vector<std::string>& header = records[0];

  std::vector<Attribute> attrs;
  attrs.reserve(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    ValueType type = ValueType::kString;
    if (options.infer_types) type = InferColumnType(records, c, options);
    attrs.push_back(Attribute{Trim(header[c]), type});
  }
  TREX_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));

  Table table(std::move(schema));
  for (std::size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != header.size()) {
      return Status::ParseError(
          "record " + std::to_string(r) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(header.size()));
    }
    std::vector<Value> row;
    row.reserve(header.size());
    for (std::size_t c = 0; c < header.size(); ++c) {
      const std::string& raw = records[r][c];
      if (IsNullToken(raw, options)) {
        row.push_back(Value::Null());
        continue;
      }
      TREX_ASSIGN_OR_RETURN(
          Value v, Value::Parse(raw, table.schema().attribute(c).type));
      row.push_back(std::move(v));
    }
    TREX_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Table> table = ReadCsv(buffer.str(), options);
  if (!table.ok()) return table.status().WithPrefix(path);
  return table;
}

std::string WriteCsv(const Table& table, char separator) {
  std::string out;
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (c > 0) out.push_back(separator);
    out += CsvEscape(schema.attribute(c).name, separator);
  }
  out.push_back('\n');
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(separator);
      const Value& v = table.at(r, c);
      if (v.is_double()) {
        out += DoubleField(v.as_double());
      } else if (!v.is_null()) {
        out += CsvEscape(v.ToString(), separator);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char separator) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open file for write: " + path);
  out << WriteCsv(table, separator);
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::Ok();
}

}  // namespace trex
