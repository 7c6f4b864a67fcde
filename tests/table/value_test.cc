#include "table/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "table/stats.h"
#include "table/table.h"

namespace trex {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(std::int64_t{42}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(std::string("abc")).is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("x").as_string(), "x");
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH(Value("x").as_int(), "Check failed");
  EXPECT_DEATH(Value(1).as_string(), "Check failed");
}

TEST(ValueTest, IntDoubleCrossEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_LT(Value(1), Value(1.5));
  EXPECT_GT(Value(2), Value(1.9));
  // Exact, not through a rounding of the int to a double.
  constexpr std::int64_t k2p53 = std::int64_t{1} << 53;
  EXPECT_EQ(Value(k2p53), Value(9007199254740992.0));
  EXPECT_GT(Value(k2p53 + 1), Value(9007199254740992.0));
  EXPECT_LT(Value(k2p53 + 1), Value(9007199254740994.0));
  EXPECT_LT(Value(std::numeric_limits<std::int64_t>::max()),
            Value(9223372036854775808.0));
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()),
            Value(-9223372036854775808.0));
  EXPECT_EQ(Value(0), Value(-0.0));
  EXPECT_FALSE(ExactlyEqual(Value(1), Value(1.0)));
  EXPECT_TRUE(ExactlyEqual(Value(0.0), Value(-0.0)));
}

/// Every comparison class and its edges: null; ints around ±2^53 and the
/// int64 extremes; doubles with ±0.0, ±inf, halves and the doubles next
/// to 2^53 and 2^63; strings.
std::vector<Value> OrderMix() {
  constexpr std::int64_t k2p53 = std::int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value(0),
          Value(1),
          Value(-1),
          Value(k2p53 - 1),
          Value(k2p53),
          Value(k2p53 + 1),
          Value(-k2p53),
          Value(-k2p53 - 1),
          Value(std::numeric_limits<std::int64_t>::max()),
          Value(std::numeric_limits<std::int64_t>::min()),
          Value(0.0),
          Value(-0.0),
          Value(0.5),
          Value(1.0),
          Value(-1.0),
          Value(kInf),
          Value(-kInf),
          Value(9007199254740992.0),
          Value(9007199254740994.0),
          Value(-9007199254740992.0),
          Value(9223372036854775808.0),
          Value(-9223372036854775808.0),
          Value(1e300),
          Value(""),
          Value("1"),
          Value("a"),
          Value("b")};
}

TEST(ValueOrderTest, CompareIsAStrictWeakOrder) {
  const std::vector<Value> mix = OrderMix();
  for (const Value& a : mix) {
    EXPECT_FALSE(a < a) << a;
    EXPECT_EQ(a.Compare(a), 0) << a;
    for (const Value& b : mix) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a)) << a << " vs " << b;
      if (a == b) EXPECT_EQ(a.Hash(), b.Hash()) << a << " vs " << b;
      for (const Value& c : mix) {
        if (a < b && b < c) EXPECT_LT(a, c) << a << " " << b << " " << c;
        if (a == b && b == c) EXPECT_EQ(a, c) << a << " " << b << " " << c;
      }
    }
  }
}

TEST(ValueOrderTest, SetContentsIgnoreInsertionOrder) {
  std::vector<Value> mix = OrderMix();
  Rng rng(29);
  std::vector<Value> want;
  for (int round = 0; round < 50; ++round) {
    rng.Shuffle(&mix);
    const std::set<Value> set(mix.begin(), mix.end());
    const std::vector<Value> got(set.begin(), set.end());
    if (round == 0) want = got;
    // Equal sizes and equal elements; an equivalence class (1 and 1.0)
    // may keep either member.
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
}

TEST(ValueOrderTest, DistinctSortedIgnoresRowOrder) {
  // A typed column drawn from the mix: equal values share one code, so
  // the distinct values are identical, bit for bit, in any row order.
  const std::vector<Value> mix = OrderMix();
  Rng rng(31);
  for (const ValueType type :
       {ValueType::kInt, ValueType::kDouble, ValueType::kString}) {
    std::vector<Value> column;
    for (int i = 0; i < 60; ++i) {
      const Value& v = mix[rng.UniformUint64(mix.size())];
      if (v.is_null() || v.type() == type) column.push_back(v);
    }
    std::vector<Value> want;
    for (int round = 0; round < 20; ++round) {
      rng.Shuffle(&column);
      Table table(Schema({Attribute{"A", type}}));
      for (const Value& v : column) ASSERT_TRUE(table.AppendRow({v}).ok());
      const std::vector<Value> got =
          ColumnStats::Build(table, 0).DistinctSorted();
      if (round == 0) want = got;
      ASSERT_EQ(got.size(), want.size()) << ValueTypeToString(type);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(ExactlyEqual(got[i], want[i])) << got[i];
        EXPECT_FALSE(got[i].is_double() && std::signbit(got[i].as_double()) &&
                     got[i].as_double() == 0.0);
      }
    }
  }
}

TEST(ValueTest, CrossEqualValuesHashAlike) {
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, NullEqualsNullStructurally) {
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, TotalOrderAcrossClasses) {
  // null < numeric < string.
  EXPECT_LT(Value::Null(), Value(-100));
  EXPECT_LT(Value(1000000), Value(""));
  EXPECT_LT(Value::Null(), Value("a"));
}

TEST(ValueTest, StringOrderIsBytewise) {
  EXPECT_LT(Value("Madrid"), Value("Paris"));
  EXPECT_LT(Value("A"), Value("a"));
}

TEST(ValueTest, SortingMixedVectorIsStablyOrdered) {
  std::vector<Value> values{Value("b"), Value(2), Value::Null(),
                            Value(1.5), Value("a"), Value(1)};
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(values[0].is_null());
  EXPECT_EQ(values[1], Value(1));
  EXPECT_EQ(values[2], Value(1.5));
  EXPECT_EQ(values[3], Value(2));
  EXPECT_EQ(values[4], Value("a"));
  EXPECT_EQ(values[5], Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
  EXPECT_EQ(Value(5).Hash(), Value(5).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-1).ToString(), "-1");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("España").ToString(), "España");
  EXPECT_EQ(Value::Null().ToString(), "∅");
}

TEST(ValueTest, ParseTyped) {
  EXPECT_EQ(*Value::Parse("42", ValueType::kInt), Value(42));
  EXPECT_EQ(*Value::Parse("2.5", ValueType::kDouble), Value(2.5));
  EXPECT_EQ(*Value::Parse("abc", ValueType::kString), Value("abc"));
  EXPECT_TRUE(Value::Parse("", ValueType::kInt)->is_null());
  EXPECT_TRUE(Value::Parse("  ", ValueType::kString)->is_null());
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("abc", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("x1", ValueType::kDouble).ok());
  // A NaN is not a value; an infinity is.
  for (const char* nan : {"nan", "NaN", "-nan", "nan(1)"}) {
    EXPECT_EQ(Value::Parse(nan, ValueType::kDouble).status().code(),
              StatusCode::kParseError)
        << nan;
  }
  EXPECT_EQ(*Value::Parse("-inf", ValueType::kDouble),
            Value(-std::numeric_limits<double>::infinity()));
}

TEST(ValueTest, InferNarrowestType) {
  EXPECT_TRUE(Value::Infer("42").is_int());
  EXPECT_TRUE(Value::Infer("2.5").is_double());
  EXPECT_TRUE(Value::Infer("2.5x").is_string());
  EXPECT_TRUE(Value::Infer("Madrid").is_string());
  EXPECT_EQ(Value::Infer("nan"), Value("nan"));
  EXPECT_EQ(Value::Infer("-NaN"), Value("-NaN"));
  EXPECT_TRUE(Value::Infer("inf").is_double());
  EXPECT_TRUE(Value::Infer("").is_null());
  EXPECT_TRUE(Value::Infer("  ").is_null());
}

TEST(ValueTest, InferKeepsOriginalStringBytes) {
  // Inference must not trim payload of string values.
  EXPECT_EQ(Value::Infer(" padded ").as_string(), " padded ");
}

TEST(ValueTest, ValueHashFunctorUsableInContainers) {
  std::unordered_map<Value, int, ValueHash> map;
  map[Value("a")] = 1;
  map[Value(2)] = 2;
  map[Value::Null()] = 3;
  EXPECT_EQ(map.at(Value("a")), 1);
  EXPECT_EQ(map.at(Value(2)), 2);
  EXPECT_EQ(map.at(Value::Null()), 3);
}

TEST(ValueTypeTest, Names) {
  EXPECT_STREQ(ValueTypeToString(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeToString(ValueType::kInt), "int");
  EXPECT_STREQ(ValueTypeToString(ValueType::kDouble), "double");
  EXPECT_STREQ(ValueTypeToString(ValueType::kString), "string");
}

}  // namespace
}  // namespace trex
