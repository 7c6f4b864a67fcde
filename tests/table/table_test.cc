#include "table/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

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
  Table b(Schema({Attribute{"A", ValueType::kInt}}));
  EXPECT_TRUE(a.AppendRow({Value("1")}).ok());
  EXPECT_TRUE(b.AppendRow({Value(1)}).ok());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(TableTest, AppendRowRejectsValuesOutsideTheColumnType) {
  Table t(Schema({Attribute{"S", ValueType::kString},
                  Attribute{"I", ValueType::kInt},
                  Attribute{"D", ValueType::kDouble}}));
  EXPECT_TRUE(t.AppendRow({Value("a"), Value(1), Value(1.5)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  // An int in a double column, a double in an int column, a number in a
  // string column, a NaN: each fails and appends nothing.
  for (const std::vector<Value>& row :
       {std::vector<Value>{Value("a"), Value(1), Value(2)},
        std::vector<Value>{Value("a"), Value(1.0), Value(1.5)},
        std::vector<Value>{Value(7), Value(1), Value(1.5)},
        std::vector<Value>{Value("a"), Value(1),
                           Value(std::numeric_limits<double>::quiet_NaN())}}) {
    const Status status = t.AppendRow(row);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.CheckValue(2, Value(-0.0)).ok());
  EXPECT_FALSE(t.CheckValue(1, Value(2.0)).ok());
}

TEST(TableDeathTest, SetOfAWrongTypeAborts) {
  Table t = SmallTable();
  EXPECT_DEATH(t.Set(0, 1, Value("two")), "Check failed");
  EXPECT_DEATH(t.Set(0, 1, Value(2.0)), "Check failed");
  EXPECT_DEATH(t.SetCode(0, 1, t.code(0, 0)), "Check failed");
}

TEST(TableTest, FingerprintPositionKeyedNotJustValueKeyed) {
  // Swapping two different values between cells must change the
  // fingerprint: per-cell hashes are keyed by (row, col), so the XOR
  // of the swapped pair does not cancel.
  Table table(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(table.AppendRow({Value("x"), Value("y")}).ok());
  Table swapped(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(swapped.AppendRow({Value("y"), Value("x")}).ok());
  EXPECT_NE(table.Fingerprint(), swapped.Fingerprint());
}

TEST(TableTest, FingerprintLengthDelimitsStringCells) {
  // Without length prefixes, ("a\x03", "b") and ("a", "\x03b") would
  // serialize identically — 0x03 is the kString type tag — and collide
  // deterministically. Regression for exactly that pair.
  Table one(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(one.AppendRow({Value(std::string("a\x03")), Value("b")}).ok());
  Table two(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(two.AppendRow({Value("a"), Value(std::string("\x03b"))}).ok());
  EXPECT_NE(one.Fingerprint(), two.Fingerprint());
}

// ---- Dictionary encoding --------------------------------------------------

TEST(TableDictionaryTest, CopySetLeavesOriginalUntouched) {
  const Table original = SmallTable();
  const std::uint64_t fingerprint = original.Fingerprint();
  Table copy = original;
  ASSERT_TRUE(copy.SharesDictionary(original));
  const std::size_t dictionary_size = original.dictionary().size();

  copy.Set(0, 0, Value("y"));  // a value the shared dictionary holds
  EXPECT_TRUE(copy.SharesDictionary(original));
  copy.Set(1, 0, Value("brand new"));  // clones the shared dictionary
  EXPECT_FALSE(copy.SharesDictionary(original));
  copy.Set(2, 1, Value(35));

  EXPECT_EQ(original, SmallTable());
  EXPECT_EQ(original.dictionary().size(), dictionary_size);
  EXPECT_EQ(original.at(1, 0), Value("y"));
  EXPECT_TRUE(original.at(2, 1).is_null());
  EXPECT_EQ(original.Fingerprint(), fingerprint);
  EXPECT_EQ(original.Fingerprint(), SmallTable().Fingerprint());

  EXPECT_EQ(copy.at(0, 0), Value("y"));
  EXPECT_EQ(copy.at(1, 0), Value("brand new"));
  EXPECT_EQ(copy.at(2, 1), Value(35));
  // The clone keeps every code, so codes read before it still decode.
  EXPECT_EQ(copy.code(0, 0), original.code(1, 0));
  EXPECT_NE(copy.Fingerprint(), original.Fingerprint());
}

TEST(TableDictionaryTest, EqualCodesAreEqualValuesInOneColumn) {
  Table t(Schema({Attribute{"D", ValueType::kDouble},
                  Attribute{"I", ValueType::kInt},
                  Attribute{"S", ValueType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(1), Value("")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(0.0), Value(2), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(-0.0), Value(1), Value("")}).ok());
  const auto code = [&](std::size_t row, std::size_t col) {
    return t.code(row, col);
  };
  // -0.0 is interned as +0.0: one value, one code.
  EXPECT_EQ(code(1, 0), code(2, 0));
  EXPECT_FALSE(std::signbit(t.at(2, 0).as_double()));
  EXPECT_EQ(t.Intern(Value(-0.0)), code(1, 0));
  // 1 == 1.0, but the int and double columns keep their own codes.
  EXPECT_EQ(t.at(0, 0), t.at(0, 1));
  EXPECT_NE(code(0, 0), code(0, 1));
  EXPECT_TRUE(MixesIntAndDouble(t.schema(), 0, 1));
  EXPECT_FALSE(MixesIntAndDouble(t.schema(), 1, 1));
  EXPECT_FALSE(MixesIntAndDouble(t.schema(), 1, 2));
  EXPECT_EQ(code(0, 1), code(2, 1));
  // "" and null stay apart.
  EXPECT_EQ(code(0, 2), code(2, 2));
  EXPECT_NE(code(0, 2), kNullCode);
  EXPECT_EQ(code(1, 2), kNullCode);
  EXPECT_EQ(t.Intern(Value::Null()), kNullCode);
}

TEST(TableDictionaryDeathTest, InterningANaNAborts) {
  Table t(Schema({Attribute{"D", ValueType::kDouble}}));
  EXPECT_DEATH(t.Intern(Value(std::numeric_limits<double>::quiet_NaN())),
               "NaN");
}

TEST(TableDictionaryTest, ReferenceSurvivesSetOfAnotherCell) {
  Table t = SmallTable();
  const Table shared = t;  // the next new value clones the dictionary
  const Value& held = t.at(0, 0);
  for (int i = 0; i < 200; ++i) {  // grows the clone through many chunks
    t.Set(1, 0, Value("value " + std::to_string(i)));
  }
  EXPECT_EQ(held, Value("x"));
  EXPECT_EQ(t.at(0, 0), Value("x"));
  EXPECT_EQ(t.at(1, 0), Value("value 199"));
  EXPECT_EQ(shared.at(1, 0), Value("y"));
}

TEST(TableDictionaryTest, EqualityAcrossDictionariesComparesValues) {
  const Schema schema({Attribute{"A", ValueType::kDouble}});
  Table a(schema);
  Table b(schema);
  ASSERT_TRUE(a.AppendRow({Value(0.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(-0.0)}).ok());
  EXPECT_FALSE(a.SharesDictionary(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());  // both hold +0.0
  Table c = a;
  c.SetCode(0, 0, c.Intern(Value(2.5)));
  EXPECT_NE(c, b);
  EXPECT_NE(c.Fingerprint(), b.Fingerprint());
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
