// CSV import/export for `Table` (RFC 4180 quoting, header row, optional
// type inference).

#ifndef TREX_TABLE_CSV_H_
#define TREX_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "table/table.h"

namespace trex {

/// Options controlling CSV parsing.
struct CsvOptions {
  char separator = ',';
  /// When true, column types are inferred from the data (int, then double,
  /// then string); when false, every column is a string.
  bool infer_types = true;
  /// Cells equal to this marker (after trimming) parse to null, in
  /// addition to empty cells.
  std::string null_marker = "NULL";
};

/// Parses CSV text whose first record is the header into a `Table`.
[[nodiscard]] Result<Table> ReadCsv(std::string_view text, const CsvOptions& options = {});

/// Reads and parses a CSV file.
[[nodiscard]] Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table (with header) to CSV text. Null cells render as the
/// empty field; a double renders with the digits that read it back
/// exactly, and ".0" when integral, so its column reloads as double.
std::string WriteCsv(const Table& table, char separator = ',');

/// Writes a table to a file.
[[nodiscard]] Status WriteCsvFile(const Table& table, const std::string& path,
                    char separator = ',');

}  // namespace trex

#endif  // TREX_TABLE_CSV_H_
