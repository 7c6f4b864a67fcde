#include "data/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "dc/violation.h"

namespace trex::data {
namespace {

TEST(GeneratorTest, ProducesRequestedRows) {
  auto generated = GenerateSoccer({.num_rows = 50, .seed = 1});
  EXPECT_EQ(generated.clean.num_rows(), 50u);
  EXPECT_EQ(generated.clean.num_columns(), 6u);
}

TEST(GeneratorTest, CleanTableHasNoViolations) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    auto generated = GenerateSoccer({.num_rows = 120, .seed = seed});
    EXPECT_FALSE(dc::HasAnyViolation(generated.clean, generated.dcs))
        << "seed " << seed;
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = GenerateSoccer({.num_rows = 40, .seed = 5});
  auto b = GenerateSoccer({.num_rows = 40, .seed = 5});
  EXPECT_EQ(a.clean, b.clean);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = GenerateSoccer({.num_rows = 40, .seed = 5});
  auto b = GenerateSoccer({.num_rows = 40, .seed = 6});
  EXPECT_NE(a.clean, b.clean);
}

TEST(GeneratorTest, FunctionalDependenciesHoldByConstruction) {
  auto generated = GenerateSoccer({.num_rows = 100, .seed = 11});
  const Table& t = generated.clean;
  // Team -> City, City -> Country, League -> Country as value maps.
  std::map<Value, Value> team_city;
  std::map<Value, Value> league_country;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const Value team = t.Cell(r, "Team");
    const Value city = t.Cell(r, "City");
    auto [it, inserted] = team_city.emplace(team, city);
    if (!inserted) EXPECT_EQ(it->second, city);
    const Value league = t.Cell(r, "League");
    const Value country = t.Cell(r, "Country");
    auto [it2, inserted2] = league_country.emplace(league, country);
    if (!inserted2) EXPECT_EQ(it2->second, country);
  }
}

TEST(GeneratorTest, PlacesUniquePerLeagueYear) {
  auto generated = GenerateSoccer({.num_rows = 100, .seed = 13});
  const Table& t = generated.clean;
  std::set<std::tuple<std::string, std::int64_t, std::int64_t>> seen;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const auto key = std::make_tuple(t.Cell(r, "League").as_string(),
                                     t.Cell(r, "Year").as_int(),
                                     t.Cell(r, "Place").as_int());
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate (league, year, place)";
  }
}

TEST(GeneratorTest, ZipfSkewsTeamFrequencies) {
  auto skewed = GenerateSoccer(
      {.num_rows = 200, .teams_per_league = 16, .zipf_exponent = 1.5,
       .seed = 17});
  std::map<Value, std::size_t> counts;
  for (std::size_t r = 0; r < skewed.clean.num_rows(); ++r) {
    ++counts[skewed.clean.Cell(r, "Team")];
  }
  std::size_t max_count = 0;
  for (const auto& [team, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // With heavy skew the most popular team must dominate the mean.
  const double mean =
      static_cast<double>(skewed.clean.num_rows()) / counts.size();
  EXPECT_GT(static_cast<double>(max_count), 1.5 * mean);
}

TEST(GeneratorTest, MultipleCountries) {
  auto generated = GenerateSoccer(
      {.num_rows = 120, .num_countries = 6, .seed = 19});
  std::set<Value> countries;
  for (std::size_t r = 0; r < generated.clean.num_rows(); ++r) {
    countries.insert(generated.clean.Cell(r, "Country"));
  }
  EXPECT_GT(countries.size(), 2u);
}

TEST(GeneratorTest, ConstraintSetIsFigure1) {
  auto generated = GenerateSoccer({.num_rows = 10, .seed = 23});
  EXPECT_EQ(generated.dcs.size(), 4u);
  EXPECT_EQ(generated.dcs.at(2).name(), "C3");
}

// Regression: the default world holds 4 countries x 1 league x 8 teams
// x 10 years = 320 (team, year) pairs. Requesting more than that used to
// silently emit fewer rows than asked; the generator must now grow the
// world and emit exactly num_rows, still violation-free.
TEST(GeneratorTest, KeySpaceExhaustionGrowsWorld) {
  auto generated = GenerateSoccer({.num_rows = 2000, .seed = 29});
  EXPECT_EQ(generated.clean.num_rows(), 2000u);
  EXPECT_FALSE(dc::HasAnyViolation(generated.clean, generated.dcs));
}

// Saturating the key space exactly forces the deterministic backfill
// sweep (Zipf sampling alone cannot place the last pairs in bounded
// attempts) — the output must still be exact and per-seed reproducible.
TEST(GeneratorTest, SaturatedWorldStaysExactAndDeterministic) {
  const SoccerGenOptions options{.num_rows = 320, .seed = 31};
  auto a = GenerateSoccer(options);
  EXPECT_EQ(a.clean.num_rows(), 320u);
  EXPECT_FALSE(dc::HasAnyViolation(a.clean, a.dcs));
  auto b = GenerateSoccer(options);
  EXPECT_EQ(a.clean, b.clean);
}

TEST(GeneratorTest, GrownWorldKeepsFunctionalDependencies) {
  auto generated = GenerateSoccer({.num_rows = 1500, .seed = 37});
  const Table& t = generated.clean;
  ASSERT_EQ(t.num_rows(), 1500u);
  std::map<Value, Value> team_city;
  std::map<Value, Value> city_country;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    auto [it, inserted] =
        team_city.emplace(t.Cell(r, "Team"), t.Cell(r, "City"));
    if (!inserted) EXPECT_EQ(it->second, t.Cell(r, "City"));
    auto [it2, inserted2] =
        city_country.emplace(t.Cell(r, "City"), t.Cell(r, "Country"));
    if (!inserted2) EXPECT_EQ(it2->second, t.Cell(r, "Country"));
  }
}

TEST(GeneratorTest, ScalesToLargeWorlds) {
  auto generated = GenerateSoccer({.num_rows = 20000, .seed = 41});
  EXPECT_EQ(generated.clean.num_rows(), 20000u);
}

// Golden fingerprints: the generator's output is pinned bit for bit
// across shapes that exercise the Zipf phase, the backfill sweep of a
// saturated world, a grown world and multi-league countries.
TEST(GeneratorTest, GoldenFingerprints) {
  const struct {
    SoccerGenOptions options;
    std::uint64_t fingerprint;
  } cases[] = {
      {{}, 0x43c4ede9cecf5c00ULL},
      {{.num_rows = 5000}, 0xefda00c8919d6851ULL},
      {{.num_rows = 16, .teams_per_league = 2, .first_year = 2018},
       0x2e4165a0080d9017ULL},
      {{.num_rows = 1500, .seed = 37}, 0xf9305e614614f722ULL},
      {{.num_rows = 200, .zipf_exponent = 0.0, .seed = 3},
       0x8050716860bf7282ULL},
      {{.num_rows = 300, .leagues_per_country = 3, .seed = 4},
       0x9b22d65c6e6fe36bULL},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(GenerateSoccer(c.options).clean.Fingerprint(), c.fingerprint)
        << c.options.num_rows << " rows, seed " << c.options.seed;
  }
}

TEST(WorldGeneratorTest, ProducesRequestedTables) {
  WorldGenOptions options;
  options.table.num_rows = 50;
  options.table.seed = 43;
  options.num_tables = 3;
  auto world = GenerateWorld(options);
  ASSERT_EQ(world.tables.size(), 3u);
  for (const GeneratedData& data : world.tables) {
    EXPECT_EQ(data.clean.num_rows(), 50u);
    EXPECT_FALSE(dc::HasAnyViolation(data.clean, data.dcs));
  }
}

TEST(WorldGeneratorTest, TablesHaveDisjointContent) {
  WorldGenOptions options;
  options.table.num_rows = 60;
  options.table.seed = 47;
  options.num_tables = 3;
  auto world = GenerateWorld(options);
  for (std::size_t i = 0; i < world.tables.size(); ++i) {
    for (std::size_t j = i + 1; j < world.tables.size(); ++j) {
      EXPECT_NE(world.tables[i].clean, world.tables[j].clean)
          << "tables " << i << " and " << j << " are identical";
    }
  }
  // The per-table seed chain is disjoint from the base seed itself: the
  // first table is not simply GenerateSoccer(base).
  auto base = GenerateSoccer(options.table);
  EXPECT_NE(world.tables[0].clean, base.clean);
}

TEST(WorldGeneratorTest, DeterministicForSeed) {
  WorldGenOptions options;
  options.table.num_rows = 40;
  options.table.seed = 53;
  options.num_tables = 2;
  auto a = GenerateWorld(options);
  auto b = GenerateWorld(options);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (std::size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].clean, b.tables[i].clean);
  }
}

}  // namespace
}  // namespace trex::data
