#include "table/table.h"

#include <gtest/gtest.h>

namespace trex {
namespace {

Table SmallTable() {
  Table t(Schema({Attribute{"A", ValueType::kString},
                  Attribute{"B", ValueType::kInt}}));
  EXPECT_TRUE(t.AppendRow({Value("x"), Value(1)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("y"), Value(2)}).ok());
  EXPECT_TRUE(t.AppendRow({Value("z"), Value::Null()}).ok());
  return t;
}

TEST(TableTest, ShapeAccessors) {
  const Table t = SmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_cells(), 6u);
}

TEST(TableTest, EmptyTable) {
  Table t(Schema::AllStrings({"A"}));
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_cells(), 0u);
  EXPECT_TRUE(t.AllCells().empty());
}

TEST(TableTest, DefaultConstructedTable) {
  Table t;
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 0u);
}

TEST(TableTest, CellAccess) {
  const Table t = SmallTable();
  EXPECT_EQ(t.at(0, 0), Value("x"));
  EXPECT_EQ(t.at(1, 1), Value(2));
  EXPECT_TRUE(t.at(2, 1).is_null());
  EXPECT_EQ(t.at(CellRef{1, 0}), Value("y"));
}

TEST(TableTest, NamedCellAccess) {
  const Table t = SmallTable();
  EXPECT_EQ(t.Cell(0, "A"), Value("x"));
  EXPECT_EQ(t.Cell(2, "B"), Value::Null());
}

TEST(TableTest, SetOverwrites) {
  Table t = SmallTable();
  t.Set(0, 1, Value(42));
  EXPECT_EQ(t.at(0, 1), Value(42));
  t.Set(CellRef{0, 1}, Value::Null());
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST(TableTest, AppendRowArityChecked) {
  Table t(Schema::AllStrings({"A", "B"}));
  EXPECT_FALSE(t.AppendRow({Value("only-one")}).ok());
  EXPECT_FALSE(t.AppendRow({Value("1"), Value("2"), Value("3")}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableDeathTest, OutOfBoundsAccessAborts) {
  const Table t = SmallTable();
  EXPECT_DEATH(t.at(3, 0), "Check failed");
  EXPECT_DEATH(t.at(0, 2), "Check failed");
}

TEST(TableTest, LinearIndexMatchesVectorizationOrder) {
  // Example 2.5 vectorization: (t1[A1], t1[A2], ..., t2[A1], ...).
  const Table t = SmallTable();
  EXPECT_EQ(t.LinearIndex(CellRef{0, 0}), 0u);
  EXPECT_EQ(t.LinearIndex(CellRef{0, 1}), 1u);
  EXPECT_EQ(t.LinearIndex(CellRef{1, 0}), 2u);
  EXPECT_EQ(t.LinearIndex(CellRef{2, 1}), 5u);
}

TEST(TableTest, FromLinearIndexInverts) {
  const Table t = SmallTable();
  for (std::size_t i = 0; i < t.num_cells(); ++i) {
    EXPECT_EQ(t.LinearIndex(t.FromLinearIndex(i)), i);
  }
}

TEST(TableTest, AllCellsInRowMajorOrder) {
  const Table t = SmallTable();
  const auto cells = t.AllCells();
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(t.LinearIndex(cells[i]), i);
  }
}

TEST(TableTest, EqualityDetectsValueChange) {
  const Table a = SmallTable();
  Table b = SmallTable();
  EXPECT_EQ(a, b);
  b.Set(0, 0, Value("changed"));
  EXPECT_NE(a, b);
}

TEST(TableTest, FingerprintStableAndSensitive) {
  const Table a = SmallTable();
  Table b = SmallTable();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.Set(0, 0, Value("changed"));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(TableTest, FingerprintDistinguishesNullFromEmpty) {
  Table a(Schema::AllStrings({"A"}));
  Table b(Schema::AllStrings({"A"}));
  EXPECT_TRUE(a.AppendRow({Value("")}).ok());
  EXPECT_TRUE(b.AppendRow({Value::Null()}).ok());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(TableTest, FingerprintDistinguishesTypeOfSameRendering) {
  Table a(Schema::AllStrings({"A"}));
  Table b(Schema::AllStrings({"A"}));
  EXPECT_TRUE(a.AppendRow({Value("1")}).ok());
  EXPECT_TRUE(b.AppendRow({Value(1)}).ok());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(CellRefTest, OrderingAndEquality) {
  EXPECT_EQ((CellRef{1, 2}), (CellRef{1, 2}));
  EXPECT_NE((CellRef{1, 2}), (CellRef{2, 1}));
  EXPECT_LT((CellRef{0, 5}), (CellRef{1, 0}));
  EXPECT_LT((CellRef{1, 0}), (CellRef{1, 1}));
}

TEST(CellRefTest, PaperStyleNaming) {
  const Schema schema = Schema::AllStrings({"Team", "Country"});
  EXPECT_EQ((CellRef{4, 1}).ToString(schema), "t5[Country]");
  EXPECT_EQ((CellRef{0, 0}).ToString(schema), "t1[Team]");
  EXPECT_EQ((CellRef{0, 9}).ToString(schema), "(0,9)");  // out of schema
  EXPECT_EQ((CellRef{2, 1}).ToString(), "(2,1)");
}

}  // namespace
}  // namespace trex
