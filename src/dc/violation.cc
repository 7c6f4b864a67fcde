#include "dc/violation.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace trex::dc {
namespace {

/// Key for composite hash joins: the joined cells' codes, hashed from the
/// dictionary's per-entry `Value::Hash`. Join-key columns never mix int
/// and double (`IsJoinKey`), so equal codes are equal values.
struct JoinKey {
  std::vector<std::uint32_t> codes;
  bool operator==(const JoinKey& other) const { return codes == other.codes; }
};

struct JoinKeyHash {
  const ValueDictionary* dict;
  std::size_t operator()(const JoinKey& key) const {
    std::size_t h = 0x811c9dc5;
    for (std::uint32_t code : key.codes) {
      h = HashCombine(h, dict->value_hash(code));
    }
    return h;
  }
};

/// Emits the ordered pair (r1, r2) as a violation if it survives the
/// dedup policy.
void Emit(std::size_t constraint_index, std::size_t r1, std::size_t r2,
          bool symmetric_dedup, std::vector<Violation>* out) {
  if (symmetric_dedup && r2 < r1) return;
  out->push_back(Violation{constraint_index, r1, r2});
}

void FindBinaryViolationsNestedLoop(const Table& table,
                                    const DenialConstraint& dc,
                                    std::size_t constraint_index,
                                    bool symmetric_dedup,
                                    std::vector<Violation>* out) {
  const std::size_t n = table.num_rows();
  for (std::size_t r1 = 0; r1 < n; ++r1) {
    for (std::size_t r2 = 0; r2 < n; ++r2) {
      if (r1 == r2) continue;
      if (dc.IsViolatedBy(table, r1, r2)) {
        Emit(constraint_index, r1, r2, symmetric_dedup, out);
      }
    }
  }
}

void FindBinaryViolationsHashJoin(const Table& table,
                                  const DenialConstraint& dc,
                                  const CrossTupleKeyColumns& cols,
                                  std::size_t constraint_index,
                                  bool symmetric_dedup,
                                  std::vector<Violation>* out) {
  // Partition rows by the t2-side join-key columns; probe with the
  // t1-side columns.
  const auto& [t1_cols, t2_cols] = cols;
  TREX_CHECK(!t1_cols.empty());

  const std::size_t n = table.num_rows();
  std::unordered_map<JoinKey, std::vector<std::size_t>, JoinKeyHash> buckets(
      n, JoinKeyHash{&table.dictionary()});
  for (std::size_t r = 0; r < n; ++r) {
    JoinKey key;
    key.codes.reserve(t2_cols.size());
    bool has_null = false;
    for (std::size_t col : t2_cols) {
      const std::uint32_t code = table.code(r, col);
      if (code == kNullCode) {
        has_null = true;
        break;
      }
      key.codes.push_back(code);
    }
    if (has_null) continue;  // null never joins
    buckets[std::move(key)].push_back(r);
  }

  for (std::size_t r1 = 0; r1 < n; ++r1) {
    JoinKey probe;
    probe.codes.reserve(t1_cols.size());
    bool has_null = false;
    for (std::size_t col : t1_cols) {
      const std::uint32_t code = table.code(r1, col);
      if (code == kNullCode) {
        has_null = true;
        break;
      }
      probe.codes.push_back(code);
    }
    if (has_null) continue;
    auto it = buckets.find(probe);
    if (it == buckets.end()) continue;
    for (std::size_t r2 : it->second) {
      if (r1 == r2) continue;
      if (dc.IsViolatedBy(table, r1, r2)) {
        Emit(constraint_index, r1, r2, symmetric_dedup, out);
      }
    }
  }
}

}  // namespace

bool IsJoinKey(const Predicate& p, const Schema& schema) {
  return p.IsCrossTupleEquality() &&
         !MixesIntAndDouble(schema, p.lhs.col(), p.rhs.col());
}

CrossTupleKeyColumns CrossTupleEqualityColumns(const DenialConstraint& dc,
                                               const Schema& schema) {
  CrossTupleKeyColumns cols;
  for (const Predicate& p : dc.predicates()) {
    if (!IsJoinKey(p, schema)) continue;
    const Operand& a = p.lhs.tuple_index() == 0 ? p.lhs : p.rhs;
    const Operand& b = p.lhs.tuple_index() == 0 ? p.rhs : p.lhs;
    cols.t1_cols.push_back(a.col());
    cols.t2_cols.push_back(b.col());
  }
  return cols;
}

std::string Violation::ToString(const DcSet& dcs) const {
  const std::string name = constraint_index < dcs.size()
                               ? dcs.at(constraint_index).name()
                               : "C?" + std::to_string(constraint_index);
  if (row1 == row2) {
    return name + " violated by t" + std::to_string(row1 + 1);
  }
  return name + " violated by (t" + std::to_string(row1 + 1) + ", t" +
         std::to_string(row2 + 1) + ")";
}

std::vector<Violation> FindViolationsOf(const Table& table,
                                        const DenialConstraint& dc,
                                        std::size_t constraint_index,
                                        const ViolationOptions& options) {
  std::vector<Violation> out;
  if (dc.arity() == 1) {
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      if (dc.IsViolatedBy(table, r, r)) {
        out.push_back(Violation{constraint_index, r, r});
      }
    }
    return out;
  }
  const bool symmetric_dedup = options.dedupe_symmetric && dc.IsSymmetric();
  const CrossTupleKeyColumns cols =
      CrossTupleEqualityColumns(dc, table.schema());
  if (!cols.t1_cols.empty()) {
    FindBinaryViolationsHashJoin(table, dc, cols, constraint_index,
                                 symmetric_dedup, &out);
  } else {
    FindBinaryViolationsNestedLoop(table, dc, constraint_index,
                                   symmetric_dedup, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Violation> FindViolations(const Table& table, const DcSet& dcs,
                                      const ViolationOptions& options) {
  std::vector<Violation> out;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    auto per_dc = FindViolationsOf(table, dcs.at(i), i, options);
    out.insert(out.end(), per_dc.begin(), per_dc.end());
  }
  return out;
}

bool HasAnyViolation(const Table& table, const DcSet& dcs) {
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    if (!FindViolationsOf(table, dcs.at(i), i).empty()) return true;
  }
  return false;
}

bool RowViolates(const Table& table, const DenialConstraint& dc,
                 std::size_t row) {
  if (dc.arity() == 1) {
    return dc.IsViolatedBy(table, row, row);
  }
  for (std::size_t other = 0; other < table.num_rows(); ++other) {
    if (other == row) continue;
    if (dc.IsViolatedBy(table, row, other) ||
        dc.IsViolatedBy(table, other, row)) {
      return true;
    }
  }
  return false;
}

std::vector<CellRef> ImplicatedCells(const Violation& violation,
                                     const DcSet& dcs) {
  std::vector<CellRef> cells;
  const DenialConstraint& dc = dcs.at(violation.constraint_index);
  for (std::size_t col : dc.ColumnsOfTuple(0)) {
    cells.push_back(CellRef{violation.row1, col});
  }
  if (dc.arity() == 2) {
    for (std::size_t col : dc.ColumnsOfTuple(1)) {
      const CellRef cell{violation.row2, col};
      if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

}  // namespace trex::dc
