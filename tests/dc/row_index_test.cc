#include "dc/row_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"

namespace trex::dc {
namespace {

/// `RowViolates` must be bit-identical to the nested-loop scan, and
/// `ViolationsOfRow` to the full detector's violations involving the row,
/// for every row.
void ExpectIndexMatchesScan(const Table& table, const DenialConstraint& dc,
                            std::size_t c, const ConstraintRowIndex& index,
                            const std::string& context) {
  const bool dedup = dc.IsSymmetric();
  const std::vector<Violation> all = FindViolationsOf(table, dc, c);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    ASSERT_EQ(index.RowViolates(row), RowViolates(table, dc, row))
        << context << " row " << row;
    std::set<Violation> expected;
    for (const Violation& v : all) {
      if (v.row1 == row || v.row2 == row) expected.insert(v);
    }
    const std::vector<Violation> probed = index.ViolationsOfRow(row, c, dedup);
    ASSERT_EQ(std::set<Violation>(probed.begin(), probed.end()), expected)
        << context << " row " << row;
  }
}

void ExpectMatchesScan(const Table& table, const DcSet& dcs) {
  for (std::size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs.at(c);
    ConstraintRowIndex index(&table, &dc);
    ExpectIndexMatchesScan(table, dc, c, index, dc.name());
  }
}

TEST(ConstraintRowIndexTest, MatchesScanOnPaperTable) {
  ExpectMatchesScan(data::SoccerDirtyTable(), data::SoccerConstraints());
}

TEST(ConstraintRowIndexTest, MatchesScanOnDirtySyntheticWorld) {
  auto generated = data::GenerateSoccer({.num_rows = 120, .seed = 3});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.08;
  inject.seed = 4;
  auto injected = data::InjectErrors(generated.clean, inject);
  ExpectMatchesScan(injected.dirty, generated.dcs);
}

TEST(ConstraintRowIndexTest, ViolationsOfRowMatchesFullDetection) {
  auto generated = data::GenerateSoccer({.num_rows = 80, .seed = 5});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.10;
  inject.seed = 6;
  auto injected = data::InjectErrors(generated.clean, inject);
  ExpectMatchesScan(injected.dirty, generated.dcs);
}

TEST(ConstraintRowIndexTest, RekeyTracksKeyColumnWrites) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);  // Team -> City
  ConstraintRowIndex index(&table, &c1);
  ASSERT_TRUE(index.uses_buckets());
  const std::size_t team_col = *table.schema().IndexOf("Team");
  ASSERT_TRUE(index.IsKeyColumn(team_col));

  // Move row 0 onto row 4's team: if their cities disagree the pair now
  // violates C1 — the probe must see it after Rekey.
  table.Set(CellRef{0, team_col}, table.at(4, team_col));
  index.Rekey(0);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }

  // And back: the stale bucket entry must be gone.
  table.Set(CellRef{0, team_col}, Value("SomethingElse"));
  index.Rekey(0);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, CountedNeqColumnIsIndexedOtherColumnsAreLive) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);  // !(Team == Team & City != City)
  ConstraintRowIndex index(&table, &c1);
  const std::size_t city_col = *table.schema().IndexOf("City");
  // C1 has the counted shape: its `!=` column is indexed like a key.
  ASSERT_TRUE(index.IsKeyColumn(city_col));
  table.Set(CellRef{4, city_col}, Value("Madrid"));
  index.Rekey(4);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }

  // Two residual predicates: outside the counted shape, so the index
  // reads both residual columns live and needs no Rekey for them.
  auto dc = ParseDc("!(t1.Team == t2.Team & t1.City != t2.City & "
                    "t1.Year < t2.Year)",
                    table.schema(), "TwoResiduals");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  ConstraintRowIndex live(&table, &*dc);
  const std::size_t year_col = *table.schema().IndexOf("Year");
  ASSERT_FALSE(live.IsKeyColumn(city_col));
  ASSERT_FALSE(live.IsKeyColumn(year_col));
  table.Set(CellRef{4, city_col}, Value("Barcelona"));
  table.Set(CellRef{1, year_col}, Value(1999));
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(live.RowViolates(row), RowViolates(table, *dc, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, NullKeysNeverJoin) {
  Table table = data::SoccerDirtyTable();
  const DcSet dcs = data::SoccerConstraints();
  const DenialConstraint& c1 = dcs.at(0);
  const std::size_t team_col = *table.schema().IndexOf("Team");
  table.Set(CellRef{2, team_col}, Value::Null());
  ConstraintRowIndex index(&table, &c1);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, c1, row))
        << "row " << row;
  }
}

TEST(ConstraintRowIndexTest, FallsBackWithoutCrossTupleEquality) {
  const Table table = data::SoccerDirtyTable();
  // No cross-tuple equality predicate: probe must fall back to the scan
  // and still answer exactly.
  auto dc = ParseDc("!(t1.Place < t2.Place & t1.Year > t2.Year)",
                    table.schema(), "NoEq");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  ConstraintRowIndex index(&table, &*dc);
  EXPECT_FALSE(index.uses_buckets());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(index.RowViolates(row), RowViolates(table, *dc, row))
        << "row " << row;
  }
}

/// A null or a value of `type` from a tiny domain, so joins, groups and
/// nulls collide often. The int and double domains overlap: 1 vs 1.0,
/// int 2^53 vs 2^53 + 1 vs double 2^53, and -0.0 vs int 0, so the
/// int-vs-double predicates meet equal and nearly equal pairs.
Value RandomValue(Rng* rng, ValueType type) {
  if (rng->UniformUint64(5) == 0) return Value::Null();
  const std::size_t pick = rng->UniformUint64(4);
  if (type == ValueType::kInt) {
    constexpr std::int64_t kInts[] = {0, 1, 9007199254740992,
                                      9007199254740993};
    return Value(kInts[pick]);
  }
  constexpr double kDoubles[] = {-0.0, 1.0, 9007199254740992.0, 0.5};
  return Value(kDoubles[pick]);
}

TEST(ConstraintRowIndexTest, SeededDifferentialAgainstScan) {
  const Schema schema({Attribute{"A", ValueType::kInt},
                       Attribute{"B", ValueType::kInt},
                       Attribute{"C", ValueType::kInt},
                       Attribute{"D", ValueType::kInt},
                       Attribute{"E", ValueType::kInt},
                       Attribute{"F", ValueType::kDouble},
                       Attribute{"G", ValueType::kDouble}});
  // 0, 1 and 2 residual predicates; symmetric and asymmetric keys; the
  // counted shape with shared and with distinct sides, over ints and
  // over doubles; and int-vs-double predicates, which are residuals
  // compared by value.
  const std::vector<std::string> texts = {
      "!(t1.A == t2.A)",
      "!(t1.A == t2.B)",
      "!(t1.A == t2.A & t1.C != t2.C)",
      "!(t1.A == t2.B & t1.C != t2.D)",
      "!(t1.A == t2.A & t1.C != t2.D)",
      "!(t2.C != t1.D & t1.A == t2.A & t1.B == t2.B)",
      "!(t1.A == t2.A & t1.C < t2.C)",
      "!(t1.A == t2.A & t1.C != t2.C & t1.D != t2.D)",
      "!(t1.A == t2.B & t1.C != t2.D & t1.E <= t2.E)",
      "!(t1.C != t2.D)",
      "!(t1.F == t2.G & t1.C != t2.D)",
      "!(t1.A == t2.B & t1.F != t2.G)",
      "!(t1.A == t2.F)",
      "!(t1.A == t2.A & t1.C != t2.F)",
      "!(t1.A == t2.F & t1.B == t2.B & t1.C != t2.D)",
  };
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const std::string& text : texts) {
      auto dc = ParseDc(text, schema, "D");
      ASSERT_TRUE(dc.ok()) << text << ": " << dc.status().ToString();
      Rng rng(seed * 1000 + dc->Fingerprint() % 1000);
      Table table(schema);
      const std::size_t num_rows = 3 + rng.UniformUint64(8);
      for (std::size_t r = 0; r < num_rows; ++r) {
        std::vector<Value> row;
        for (const Attribute& attribute : schema.attributes()) {
          row.push_back(RandomValue(&rng, attribute.type));
        }
        ASSERT_TRUE(table.AppendRow(std::move(row)).ok());
      }
      ConstraintRowIndex index(&table, &*dc);
      const std::string context = text + " seed " + std::to_string(seed);
      ExpectIndexMatchesScan(table, *dc, 0, index, context + " build");
      for (int write = 0; write < 60; ++write) {
        const CellRef cell{rng.UniformUint64(num_rows),
                           rng.UniformUint64(schema.size())};
        table.Set(cell, RandomValue(&rng, schema.attribute(cell.col).type));
        if (index.IsKeyColumn(cell.col)) index.Rekey(cell.row);
        ExpectIndexMatchesScan(table, *dc, 0, index,
                               context + " write " + std::to_string(write));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ConstraintRowIndexTest, IntAgainstDoubleEqualityComparesExactValues) {
  const Schema schema({Attribute{"Key", ValueType::kInt},
                       Attribute{"Other", ValueType::kDouble}});
  auto dc = ParseDc("!(t1.Key == t2.Other)", schema, "Mixed");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  Table table(schema);
  // Row 0 joins row 1 (1 == 1.0); int 2^53 + 1 joins no double 2^53.
  ASSERT_TRUE(table.AppendRow({Value(1), Value(5.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(7), Value(1.0)}).ok());
  ASSERT_TRUE(
      table.AppendRow({Value(std::int64_t{9007199254740993}), Value(3.0)})
          .ok());
  ASSERT_TRUE(table.AppendRow({Value(8), Value(9007199254740992.0)}).ok());
  const std::vector<Violation> violations = FindViolations(table, DcSet({*dc}));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].row1, 0u);
  EXPECT_EQ(violations[0].row2, 1u);
  ConstraintRowIndex index(&table, &*dc);
  EXPECT_FALSE(index.uses_buckets());
  ExpectIndexMatchesScan(table, *dc, 0, index, "mixed");
}

TEST(ConstraintRowIndexDeathTest, BucketProbesCheckTheRow) {
  const Table table = data::SoccerDirtyTable();
  const std::size_t n = table.num_rows();
  const DcSet dcs = data::SoccerConstraints();
  ConstraintRowIndex counted(&table, &dcs.at(0));
  EXPECT_DEATH((void)counted.RowViolates(n), "Check failed");
  EXPECT_DEATH((void)counted.ViolationsOfRow(n, 0, true), "Check failed");
  auto dc = ParseDc("!(t1.Team == t2.Team & t1.City != t2.City & "
                    "t1.Year < t2.Year)",
                    table.schema(), "TwoResiduals");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  ConstraintRowIndex scanned(&table, &*dc);
  EXPECT_DEATH((void)scanned.RowViolates(n), "Check failed");
  EXPECT_DEATH((void)scanned.ViolationsOfRow(n, 0, true), "Check failed");
}

}  // namespace
}  // namespace trex::dc
