#include "table/diff.h"

namespace trex {

std::string RepairedCell::ToString(const Schema& schema) const {
  return cell.ToString(schema) + ": " + old_value.ToString() + " -> " +
         new_value.ToString();
}

Result<std::vector<RepairedCell>> DiffTables(const Table& dirty,
                                             const Table& clean) {
  if (dirty.schema() != clean.schema()) {
    return Status::InvalidArgument("tables have different schemas");
  }
  if (dirty.num_rows() != clean.num_rows()) {
    return Status::InvalidArgument("tables have different row counts");
  }
  std::vector<RepairedCell> diffs;
  for (std::size_t r = 0; r < dirty.num_rows(); ++r) {
    for (std::size_t c = 0; c < dirty.num_columns(); ++c) {
      const Value& before = dirty.at(r, c);
      const Value& after = clean.at(r, c);
      const bool both_null = before.is_null() && after.is_null();
      if (!both_null && before != after) {
        diffs.push_back(RepairedCell{CellRef{r, c}, before, after});
      }
    }
  }
  return diffs;
}

bool CellRepairedTo(const Table& candidate, const Table& clean,
                    CellRef cell) {
  // Null is code 0 and equals only itself, as below.
  if (candidate.SharesDictionary(clean)) {
    return candidate.code(cell) == clean.code(cell);
  }
  const Value& got = candidate.at(cell);
  const Value& want = clean.at(cell);
  if (got.is_null() || want.is_null()) {
    return got.is_null() && want.is_null();
  }
  return got == want;
}

}  // namespace trex
