#include "common/string_util.h"

#include <gtest/gtest.h>

namespace trex {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputGivesOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("nochange"), "nochange");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(TrimTest, KeepsInnerWhitespace) {
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(CaseTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("HeLLo123"), "hello123");
  EXPECT_EQ(ToUpper("HeLLo123"), "HELLO123");
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("  7  "), 7);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(ParseInt64Test, RejectsInvalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("42"), 42.0);
}

TEST(ParseDoubleTest, RejectsInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("-NaN").ok());
}

TEST(FormatDoubleTest, IntegersRenderWithoutPoint) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-10.0), "-10");
  EXPECT_EQ(FormatDouble(0.0), "0");
}

TEST(FormatDoubleTest, FractionsKeepPrecision) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1.0 / 3.0, 4), "0.3333");
}

TEST(LooksLikeTest, IntDetection) {
  EXPECT_TRUE(LooksLikeInt("123"));
  EXPECT_TRUE(LooksLikeInt("-5"));
  EXPECT_TRUE(LooksLikeInt("+7"));
  EXPECT_FALSE(LooksLikeInt("1.5"));
  EXPECT_FALSE(LooksLikeInt(""));
  EXPECT_FALSE(LooksLikeInt("-"));
  EXPECT_FALSE(LooksLikeInt("12a"));
}

TEST(LooksLikeTest, DoubleDetection) {
  EXPECT_TRUE(LooksLikeDouble("1.5"));
  EXPECT_TRUE(LooksLikeDouble("-2e4"));
  EXPECT_TRUE(LooksLikeDouble("7"));
  EXPECT_FALSE(LooksLikeDouble("abc"));
  // A NaN reads as a double literal, so that a typed parse rejects it.
  EXPECT_TRUE(LooksLikeDouble("nan"));
}

TEST(CsvEscapeTest, PlainFieldsUnchanged) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("with space"), "with space");
}

TEST(CsvEscapeTest, QuotesWhenNeeded) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscapeTest, CustomSeparator) {
  EXPECT_EQ(CsvEscape("a;b", ';'), "\"a;b\"");
  EXPECT_EQ(CsvEscape("a,b", ';'), "a,b");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace trex
