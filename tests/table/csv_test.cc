#include "table/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace trex {
namespace {

TEST(CsvReadTest, BasicWithTypeInference) {
  auto table = ReadCsv("Team,Year,Rating\nBarca,2017,4.5\nReal,2016,4.25\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kString);
  EXPECT_EQ(table->schema().attribute(1).type, ValueType::kInt);
  EXPECT_EQ(table->schema().attribute(2).type, ValueType::kDouble);
  EXPECT_EQ(table->at(0, 0), Value("Barca"));
  EXPECT_EQ(table->at(1, 1), Value(2016));
  EXPECT_EQ(table->at(1, 2), Value(4.25));
}

TEST(CsvReadTest, NoInferenceKeepsStrings) {
  CsvOptions options;
  options.infer_types = false;
  auto table = ReadCsv("A,B\n1,2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->at(0, 0), Value("1"));
}

TEST(CsvReadTest, EmptyFieldsAreNull) {
  auto table = ReadCsv("A,B\n1,\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->at(0, 1).is_null());
  EXPECT_TRUE(table->at(1, 0).is_null());
}

TEST(CsvReadTest, NullMarkerRespected) {
  auto table = ReadCsv("A\nNULL\nvalue\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->at(0, 0).is_null());
  EXPECT_EQ(table->at(1, 0), Value("value"));
}

TEST(CsvReadTest, CustomNullMarker) {
  CsvOptions options;
  options.null_marker = "N/A";
  auto table = ReadCsv("A\nN/A\nNULL\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->at(0, 0).is_null());
  EXPECT_EQ(table->at(1, 0), Value("NULL"));
}

TEST(CsvReadTest, QuotedFields) {
  auto table = ReadCsv("A,B\n\"has,comma\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->at(0, 0), Value("has,comma"));
  EXPECT_EQ(table->at(0, 1), Value("say \"hi\""));
}

TEST(CsvReadTest, QuotedNewlines) {
  auto table = ReadCsv("A\n\"line1\nline2\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->at(0, 0), Value("line1\nline2"));
}

TEST(CsvReadTest, CrLfTolerated) {
  auto table = ReadCsv("A,B\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->at(0, 1), Value(2));
}

TEST(CsvReadTest, MissingTrailingNewlineOk) {
  auto table = ReadCsv("A\nvalue");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(CsvReadTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  auto table = ReadCsv("A;B\nx;y\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->at(0, 1), Value("y"));
}

TEST(CsvReadTest, ErrorOnRaggedRows) {
  auto table = ReadCsv("A,B\n1\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, ErrorOnUnterminatedQuote) {
  auto table = ReadCsv("A\n\"oops\n");
  EXPECT_FALSE(table.ok());
}

TEST(CsvReadTest, ErrorOnEmptyInput) {
  EXPECT_FALSE(ReadCsv("").ok());
}

TEST(CsvReadTest, ErrorOnDuplicateHeader) {
  EXPECT_FALSE(ReadCsv("A,A\n1,2\n").ok());
}

TEST(CsvReadTest, MixedIntAndDoubleColumnInfersDouble) {
  auto table = ReadCsv("A\n1\n2.5\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kDouble);
}

TEST(CsvReadTest, NaNInADoubleColumnFailsInEveryRowOrder) {
  // One double column holding {2.5, 1.5, nan, 2.5, 1.5} in three row
  // orders. A NaN is not a value, so every order fails the same way.
  for (const char* csv : {"A\n2.5\n1.5\nnan\n2.5\n1.5\n",
                          "A\nnan\n2.5\n1.5\n2.5\n1.5\n",
                          "A\n2.5\n1.5\n2.5\n1.5\nNaN\n"}) {
    const auto table = ReadCsv(csv);
    ASSERT_FALSE(table.ok()) << csv;
    EXPECT_EQ(table.status().code(), StatusCode::kParseError);
    EXPECT_NE(table.status().message().find("NaN"), std::string::npos);
  }
  // Without inference the cells are strings, and "nan" is one.
  CsvOptions strings;
  strings.infer_types = false;
  const auto table = ReadCsv("A\n2.5\nnan\n", strings);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->at(1, 0), Value("nan"));
}

TEST(CsvWriteTest, DoublesRoundTripExactlyAndStayDouble) {
  auto table = ReadCsv("A,B\n0.1,1\n1e300,2\n-0.0,3\ninf,4\n");
  ASSERT_TRUE(table.ok()) << table.status();
  table->Set(0, 0, Value(1.0 / 3.0));
  table->Set(1, 0, Value(9007199254740992.0));
  const auto reloaded = ReadCsv(WriteCsv(*table));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->schema(), table->schema());
  for (std::size_t r = 0; r < table->num_rows(); ++r) {
    EXPECT_TRUE(ExactlyEqual(reloaded->at(r, 0), table->at(r, 0))) << r;
  }
}

TEST(CsvReadTest, NullsDoNotBlockIntInference) {
  // Note the two-column layout: a lone empty line would be skipped as a
  // blank record, but ",x" rows carry an explicit null first field.
  auto table = ReadCsv("A,B\n1,x\n,y\n3,z\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kInt);
  EXPECT_TRUE(table->at(1, 0).is_null());
  EXPECT_EQ(table->at(2, 0), Value(3));
}

TEST(CsvReadTest, BlankLinesAreSkipped) {
  auto table = ReadCsv("A\nx\n\ny\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvWriteTest, RoundTrip) {
  auto table = ReadCsv("Team,Year\n\"has,comma\",2017\nReal,2016\n");
  ASSERT_TRUE(table.ok());
  const std::string csv = WriteCsv(*table);
  auto again = ReadCsv(csv);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*table, *again);
}

TEST(CsvWriteTest, NullsRenderAsEmpty) {
  Table t(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("x")}).ok());
  EXPECT_EQ(WriteCsv(t), "A,B\n,x\n");
}

TEST(CsvFileTest, WriteAndReadBack) {
  const std::string path = testing::TempDir() + "/trex_csv_test.csv";
  Table t(Schema({Attribute{"A", ValueType::kString},
                  Attribute{"N", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value("v"), Value(9)}).ok());
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, t);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileGivesIOError) {
  auto result = ReadCsvFile("/nonexistent/path/definitely/missing.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace trex
