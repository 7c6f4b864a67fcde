#include "data/generator.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "data/soccer.h"

namespace trex::data {

GeneratedData GenerateSoccer(const SoccerGenOptions& options) {
  TREX_CHECK_GT(options.num_countries, 0u);
  TREX_CHECK_GT(options.leagues_per_country, 0u);
  TREX_CHECK_GT(options.cities_per_country, 0u);
  TREX_CHECK_GT(options.teams_per_league, 0u);
  TREX_CHECK_LE(options.first_year, options.last_year);

  Rng rng(options.seed);

  const std::size_t num_years = static_cast<std::size_t>(
      options.last_year - options.first_year + 1);
  // One standings row per (team, year): the world must hold at least
  // num_rows such pairs. Grow it by adding countries — each brings its
  // own leagues, cities, and teams, so the FD structure is untouched.
  const std::size_t pairs_per_country =
      options.leagues_per_country * options.teams_per_league * num_years;
  TREX_CHECK_GT(pairs_per_country, 0u);  // guaranteed by the checks above
  std::size_t num_countries = options.num_countries;
  if (num_countries * pairs_per_country < options.num_rows) {
    num_countries =
        (options.num_rows + pairs_per_country - 1) / pairs_per_country;
  }

  struct TeamInfo {
    std::string name;
    std::string city;
    std::string country;
    std::string league;
  };

  // Build the consistent world: countries own cities and leagues; teams
  // live in one city and play in one league of their country.
  std::vector<TeamInfo> teams;
  for (std::size_t c = 0; c < num_countries; ++c) {
    const std::string country = "Country" + std::to_string(c);
    std::vector<std::string> cities;
    for (std::size_t k = 0; k < options.cities_per_country; ++k) {
      cities.push_back("City" + std::to_string(c) + "_" +
                       std::to_string(k));
    }
    for (std::size_t l = 0; l < options.leagues_per_country; ++l) {
      const std::string league =
          "League" + std::to_string(c) + "_" + std::to_string(l);
      for (std::size_t t = 0; t < options.teams_per_league; ++t) {
        TeamInfo team;
        team.name = league + "_Team" + std::to_string(t);
        team.city = cities[t % cities.size()];
        team.country = country;
        team.league = league;
        teams.push_back(std::move(team));
      }
    }
  }

  // Zipf-skewed team draws by inverse CDF, narrowed by a guide table:
  // bucketing u as floor(u * n) is monotone, so the lower_bound of a draw
  // in bucket b lies between the first ranks whose CDF bucket reaches b
  // and b + 1.
  const std::vector<double> team_cdf =
      ZipfTable(teams.size(), options.zipf_exponent);
  const std::size_t n = team_cdf.size();
  const auto bucket = [n](double x) {
    return std::min(n - 1,
                    static_cast<std::size_t>(x * static_cast<double>(n)));
  };
  std::vector<std::size_t> first_rank(n + 1);
  for (std::size_t b = 0, rank = 0; b <= n; ++b) {
    while (rank < n && bucket(team_cdf[rank]) < b) ++rank;
    first_rank[b] = rank;
  }
  const auto draw_team = [&] {
    const double u = rng.UniformDouble();
    const std::size_t b = bucket(u);
    const auto it = std::lower_bound(
        team_cdf.begin() + static_cast<std::ptrdiff_t>(first_rank[b]),
        team_cdf.begin() +
            static_cast<std::ptrdiff_t>(std::min(first_rank[b + 1] + 1, n)),
        u);
    return std::min(static_cast<std::size_t>(it - team_cdf.begin()), n - 1);
  };

  // Emit standings rows: pick a team (Zipf-skewed) and a year, each
  // (team, year) at most once, and give the row the smallest place free
  // for its (league, year) so C4 holds on clean data. Places are never
  // freed, so a (league, year) always holds places 1..k and the next one
  // is its counter plus one. Teams are laid out league by league.
  std::vector<bool> used_team_years(teams.size() * num_years, false);
  std::vector<int> places_taken(
      teams.size() / options.teams_per_league * num_years, 0);

  Table table(SoccerSchema());
  std::size_t emitted = 0;
  const auto emit = [&](std::size_t team_index, int year) {
    const std::size_t y = static_cast<std::size_t>(year - options.first_year);
    if (used_team_years[team_index * num_years + y]) return;
    used_team_years[team_index * num_years + y] = true;
    const int place =
        ++places_taken[team_index / options.teams_per_league * num_years + y];
    const TeamInfo& team = teams[team_index];
    TREX_CHECK(table
                   .AppendRow({Value(team.name), Value(team.city),
                               Value(team.country), Value(team.league),
                               Value(year), Value(place)})
                   .ok());
    ++emitted;
  };

  std::size_t attempts = 0;
  const std::size_t max_attempts = options.num_rows * 64 + 1024;
  while (emitted < options.num_rows && attempts < max_attempts) {
    ++attempts;
    const std::size_t team_index = draw_team();
    const int year = static_cast<int>(
        rng.UniformInt(options.first_year, options.last_year));
    emit(team_index, year);
  }

  // Sampling collisions under saturation can exhaust the attempt budget
  // before the table is full; a deterministic sweep over the unused
  // (team, year) pairs fills the exact remainder. The world was sized
  // above so this always succeeds.
  for (std::size_t t = 0; emitted < options.num_rows && t < teams.size();
       ++t) {
    for (int year = options.first_year;
         emitted < options.num_rows && year <= options.last_year; ++year) {
      emit(t, year);
    }
  }
  TREX_CHECK_EQ(emitted, options.num_rows)
      << "generator under-filled: world capacity "
      << teams.size() * num_years << " rows";

  GeneratedData out{std::move(table), SoccerConstraints()};
  return out;
}

GeneratedWorld GenerateWorld(const WorldGenOptions& options) {
  TREX_CHECK_GT(options.num_tables, 0u);
  GeneratedWorld world;
  world.tables.reserve(options.num_tables);
  // Disjoint per-table seeds: a splitmix64 chain over the base seed, so
  // sibling tables draw from uncorrelated streams but the whole world is
  // a pure function of `options`.
  std::uint64_t chain = options.table.seed;
  for (std::size_t i = 0; i < options.num_tables; ++i) {
    SoccerGenOptions per_table = options.table;
    per_table.seed = SplitMix64(&chain);
    world.tables.push_back(GenerateSoccer(per_table));
  }
  return world;
}

}  // namespace trex::data
