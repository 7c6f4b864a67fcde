#include "data/errors.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "data/generator.h"
#include "data/soccer.h"
#include "dc/violation.h"

namespace trex::data {
namespace {

TEST(ErrorInjectorTest, InjectsRequestedFraction) {
  auto generated = GenerateSoccer({.num_rows = 100, .seed = 1});
  ErrorInjectorOptions options;
  options.error_rate = 0.1;
  options.seed = 2;
  auto result = InjectErrors(generated.clean, options);
  const std::size_t expected = static_cast<std::size_t>(
      0.1 * static_cast<double>(generated.clean.num_cells()) + 0.5);
  EXPECT_EQ(result.injected.size(), expected);
}

TEST(ErrorInjectorTest, GroundTruthRecordsMatchTables) {
  auto generated = GenerateSoccer({.num_rows = 60, .seed = 3});
  ErrorInjectorOptions options;
  options.error_rate = 0.08;
  options.seed = 4;
  auto result = InjectErrors(generated.clean, options);
  for (const RepairedCell& record : result.injected) {
    EXPECT_EQ(generated.clean.at(record.cell), record.old_value);
    const Value& dirty_value = result.dirty.at(record.cell);
    if (record.new_value.is_null()) {
      EXPECT_TRUE(dirty_value.is_null());
    } else {
      EXPECT_EQ(dirty_value, record.new_value);
    }
    // The injected value differs from the truth.
    if (!record.new_value.is_null()) {
      EXPECT_NE(record.new_value, record.old_value);
    }
  }
}

TEST(ErrorInjectorTest, UntouchedCellsUnchanged) {
  auto generated = GenerateSoccer({.num_rows = 40, .seed = 5});
  ErrorInjectorOptions options;
  options.error_rate = 0.05;
  options.seed = 6;
  auto result = InjectErrors(generated.clean, options);
  std::set<std::size_t> corrupted;
  for (const RepairedCell& record : result.injected) {
    corrupted.insert(generated.clean.LinearIndex(record.cell));
  }
  for (const CellRef& cell : generated.clean.AllCells()) {
    if (corrupted.count(generated.clean.LinearIndex(cell)) > 0) continue;
    const Value& a = generated.clean.at(cell);
    const Value& b = result.dirty.at(cell);
    if (a.is_null()) {
      EXPECT_TRUE(b.is_null());
    } else {
      EXPECT_EQ(a, b);
    }
  }
}

TEST(ErrorInjectorTest, DeterministicForSeed) {
  auto generated = GenerateSoccer({.num_rows = 40, .seed = 7});
  ErrorInjectorOptions options;
  options.error_rate = 0.1;
  options.seed = 8;
  auto a = InjectErrors(generated.clean, options);
  auto b = InjectErrors(generated.clean, options);
  EXPECT_EQ(a.dirty, b.dirty);
  EXPECT_EQ(a.injected.size(), b.injected.size());
}

TEST(ErrorInjectorTest, ColumnRestrictionRespected) {
  auto generated = GenerateSoccer({.num_rows = 60, .seed = 9});
  const Schema schema = generated.clean.schema();
  ErrorInjectorOptions options;
  options.error_rate = 0.2;
  options.columns = {*schema.IndexOf("City")};
  options.seed = 10;
  auto result = InjectErrors(generated.clean, options);
  ASSERT_FALSE(result.injected.empty());
  for (const RepairedCell& record : result.injected) {
    EXPECT_EQ(record.cell.col, *schema.IndexOf("City"));
  }
}

TEST(ErrorInjectorTest, MissingErrorsAreNulls) {
  auto generated = GenerateSoccer({.num_rows = 60, .seed = 11});
  ErrorInjectorOptions options;
  options.error_rate = 0.15;
  options.weight_swap = 0;
  options.weight_typo = 0;
  options.weight_missing = 1;
  options.seed = 12;
  auto result = InjectErrors(generated.clean, options);
  ASSERT_FALSE(result.injected.empty());
  for (const RepairedCell& record : result.injected) {
    EXPECT_TRUE(record.new_value.is_null());
  }
}

/// True iff `record` is a typo: a string with '~' appended, or a number
/// above every clean value of its column (the generator's values never
/// hold a '~').
bool IsTypo(const Table& clean, const RepairedCell& record) {
  if (record.new_value.is_string()) {
    return record.new_value.as_string().find('~') != std::string::npos;
  }
  if (record.new_value.is_null()) return false;
  for (std::size_t r = 0; r < clean.num_rows(); ++r) {
    if (clean.at(r, record.cell.col) >= record.new_value) return false;
  }
  return true;
}

TEST(ErrorInjectorTest, TyposCreateFreshValues) {
  auto generated = GenerateSoccer({.num_rows = 60, .seed = 13});
  ErrorInjectorOptions options;
  options.error_rate = 0.1;
  options.weight_swap = 0;
  options.weight_typo = 1;
  options.weight_missing = 0;
  options.seed = 14;
  auto result = InjectErrors(generated.clean, options);
  ASSERT_FALSE(result.injected.empty());
  std::set<std::size_t> typed_columns;
  for (const RepairedCell& record : result.injected) {
    // A typo keeps its column's type.
    ASSERT_TRUE(generated.clean.CheckValue(record.cell.col, record.new_value)
                    .ok());
    EXPECT_TRUE(IsTypo(generated.clean, record)) << record.new_value;
    if (!record.new_value.is_string()) typed_columns.insert(record.cell.col);
  }
  EXPECT_FALSE(typed_columns.empty());  // the int columns Year and Place
}

TEST(ErrorInjectorTest, NumericTyposOfDistinctTruthsStayDistinct) {
  auto generated = GenerateSoccer({.num_rows = 60, .seed = 13});
  ErrorInjectorOptions options;
  options.error_rate = 0.5;
  options.weight_swap = 0;
  options.weight_typo = 1;
  options.weight_missing = 0;
  options.seed = 14;
  const std::size_t year = *generated.clean.ColumnIndex("Year");
  options.columns = {year};
  auto result = InjectErrors(generated.clean, options);
  std::map<Value, Value> typo_of;
  for (const RepairedCell& record : result.injected) {
    const auto [it, inserted] =
        typo_of.emplace(record.old_value, record.new_value);
    EXPECT_EQ(it->second, record.new_value);  // one typo per truth
  }
  std::set<Value> typos;
  for (const auto& [truth, typo] : typo_of) typos.insert(typo);
  EXPECT_EQ(typos.size(), typo_of.size());
  EXPECT_GT(typo_of.size(), 1u);
}

TEST(ErrorInjectorTest, SwapsStayInColumnDomain) {
  auto generated = GenerateSoccer({.num_rows = 80, .seed = 15});
  ErrorInjectorOptions options;
  options.error_rate = 0.1;
  options.weight_swap = 1;
  options.weight_typo = 0;
  options.weight_missing = 0;
  options.seed = 16;
  auto result = InjectErrors(generated.clean, options);
  ASSERT_FALSE(result.injected.empty());
  for (const RepairedCell& record : result.injected) {
    if (record.new_value.is_null()) continue;
    // Swapped values come from the clean column's domain (modulo typo
    // fallback for single-valued columns).
    bool in_domain = false;
    for (std::size_t r = 0; r < generated.clean.num_rows(); ++r) {
      if (generated.clean.at(r, record.cell.col) == record.new_value) {
        in_domain = true;
        break;
      }
    }
    EXPECT_TRUE(in_domain || IsTypo(generated.clean, record));
  }
}

// Regression: the swap domain used to be built on the partially dirtied
// table, so later swaps could draw earlier corruptions (typos like
// "X~", or other swapped-in errors) as "realistic" values. Swap sources
// must come from the *clean* column domain.
TEST(ErrorInjectorTest, SwapSourcesComeFromCleanDomain) {
  auto generated = GenerateSoccer({.num_rows = 120, .seed = 19});
  ErrorInjectorOptions options;
  options.error_rate = 0.30;  // heavy: many typos land before many swaps
  options.weight_swap = 0.5;
  options.weight_typo = 0.5;
  options.weight_missing = 0;
  options.seed = 20;
  auto result = InjectErrors(generated.clean, options);
  ASSERT_FALSE(result.injected.empty());
  // Clean per-column domains.
  std::vector<std::set<Value>> clean_domain(generated.clean.num_columns());
  for (const CellRef& cell : generated.clean.AllCells()) {
    clean_domain[cell.col].insert(generated.clean.at(cell));
  }
  std::size_t swaps = 0;
  for (const RepairedCell& record : result.injected) {
    ASSERT_FALSE(record.new_value.is_null());
    if (IsTypo(generated.clean, record)) continue;
    ++swaps;
    EXPECT_EQ(clean_domain[record.cell.col].count(record.new_value), 1u)
        << "swap drew out-of-clean-domain value "
        << record.new_value.ToString();
  }
  EXPECT_GT(swaps, 0u);
}

// Pins the injected tables byte for byte, as `GeneratorTest.
// GoldenFingerprints` pins the generator: the first case is perfbench's
// preparation (4% swaps in City and Country) at 5000 rows, the others
// add typos in string columns, nulls, and swaps in int columns.
TEST(ErrorInjectorTest, GoldenFingerprints) {
  const Schema schema = SoccerSchema();
  const std::size_t city = *schema.IndexOf("City");
  const std::size_t country = *schema.IndexOf("Country");
  ErrorInjectorOptions swaps;
  swaps.error_rate = 0.04;
  swaps.weight_swap = 1;
  swaps.weight_typo = 0;
  swaps.weight_missing = 0;
  swaps.columns = {city, country};
  swaps.seed = 2;
  ErrorInjectorOptions string_typos;
  string_typos.error_rate = 0.1;
  string_typos.columns = {city, country, *schema.IndexOf("League")};
  string_typos.seed = 38;
  ErrorInjectorOptions all_columns;
  all_columns.error_rate = 0.2;
  all_columns.weight_typo = 0;
  all_columns.seed = 5;
  const struct {
    SoccerGenOptions generate;
    ErrorInjectorOptions inject;
    std::uint64_t fingerprint;
  } cases[] = {
      {{.num_rows = 5000, .seed = 1}, swaps, 0xda429a840441d0f8ULL},
      {{.num_rows = 1500, .seed = 37}, string_typos, 0xd1efa0bb67123803ULL},
      {{.num_rows = 300, .seed = 4}, all_columns, 0x64dbfc5d7d39d078ULL},
  };
  for (const auto& c : cases) {
    const GeneratedData generated = GenerateSoccer(c.generate);
    EXPECT_EQ(InjectErrors(generated.clean, c.inject).dirty.Fingerprint(),
              c.fingerprint)
        << c.generate.num_rows << " rows, seed " << c.generate.seed;
  }
}

TEST(ErrorInjectorTest, MaxErrorsCapsInjection) {
  auto generated = GenerateSoccer({.num_rows = 100, .seed = 21});
  ErrorInjectorOptions options;
  options.error_rate = 0.5;  // would corrupt ~300 cells uncapped
  options.max_errors = 7;
  options.seed = 22;
  auto result = InjectErrors(generated.clean, options);
  EXPECT_EQ(result.injected.size(), 7u);
  // The cap selects a prefix of the same shuffled candidate order: the
  // capped run's corruptions are a subset of the uncapped run's cells.
  ErrorInjectorOptions uncapped = options;
  uncapped.max_errors = 0;
  auto full = InjectErrors(generated.clean, uncapped);
  for (std::size_t i = 0; i < result.injected.size(); ++i) {
    EXPECT_EQ(generated.clean.LinearIndex(result.injected[i].cell),
              generated.clean.LinearIndex(full.injected[i].cell));
  }
}

TEST(ErrorInjectorTest, ZeroRateInjectsNothing) {
  const Table clean = SoccerCleanTable();
  ErrorInjectorOptions options;
  options.error_rate = 0.0;
  auto result = InjectErrors(clean, options);
  EXPECT_TRUE(result.injected.empty());
  EXPECT_EQ(result.dirty, clean);
}

TEST(ErrorInjectorTest, InjectionMakesTablesDirty) {
  // The demo setup: injected errors should create actual violations.
  auto generated = GenerateSoccer({.num_rows = 80, .seed = 17});
  const Schema schema = generated.clean.schema();
  ErrorInjectorOptions options;
  options.error_rate = 0.08;
  options.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  options.seed = 18;
  auto result = InjectErrors(generated.clean, options);
  EXPECT_TRUE(dc::HasAnyViolation(result.dirty, generated.dcs));
}

}  // namespace
}  // namespace trex::data
