// Seeded mutation fuzz of the two text ingestion paths: `dc::ParseDcSet`
// and the CSV loader (`ReadCsv`), which interns every field into a table
// dictionary. Each mutated input must come back as a `Status` (ok or an
// error), never an abort; an input that loads must also survive the
// table operations a request runs on it. The corpus is the soccer
// constraints rendered as text and the soccer and hospital tables
// written as CSV. The iteration counts keep the suite to a few seconds
// under the address and undefined-behavior sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/hospital.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "table/csv.h"

namespace trex {
namespace {

constexpr int kIterations = 8000;

/// Bytes that steer the two grammars: quotes, separators, line breaks,
/// operators, parentheses, digits, a NUL, a stray UTF-8 lead byte and
/// the first byte of "≠".
constexpr char kInteresting[] = {'"',  ',', '\n', '\r', ' ', '.', ':', '#',
                                 '!',  '(', ')',  '&',  '=', '<', '>', '1',
                                 '-',  'e', 't',  '\0', '\xff', '\xe2'};

std::string RandomBytes(Rng* rng, std::size_t n) {
  std::string bytes;
  for (std::size_t i = 0; i < n; ++i) {
    bytes.push_back(rng->Bernoulli(0.5)
                        ? kInteresting[rng->UniformUint64(sizeof(kInteresting))]
                        : static_cast<char>(rng->UniformUint64(256)));
  }
  return bytes;
}

/// One to four random edits of `text`: byte flips, insertions, deletions,
/// duplicated ranges, truncation, and splices from another corpus entry.
std::string Mutate(const std::string& text,
                   const std::vector<std::string>& corpus, Rng* rng) {
  std::string out = text;
  const std::uint64_t num_edits = 1 + rng->UniformUint64(4);
  for (std::uint64_t edit = 0; edit < num_edits; ++edit) {
    const std::size_t pos = rng->UniformUint64(out.size() + 1);
    const std::size_t span = 1 + rng->UniformUint64(16);
    switch (rng->UniformUint64(6)) {
      case 0:
        if (pos < out.size()) {
          out[pos] = static_cast<char>(out[pos] ^ (1 << rng->UniformUint64(8)));
        }
        break;
      case 1:
        out.insert(pos, RandomBytes(rng, span));
        break;
      case 2:
        out.erase(pos, span);
        break;
      case 3:
        out.insert(pos, out.substr(pos, span));
        break;
      case 4:
        out.resize(pos);
        break;
      default: {
        const std::string& other = corpus[rng->UniformUint64(corpus.size())];
        const std::size_t from = rng->UniformUint64(other.size() + 1);
        out.insert(pos, other.substr(from, span * 4));
        break;
      }
    }
  }
  return out;
}

std::string SoccerDcText() {
  const Schema schema = data::SoccerSchema();
  const dc::DcSet dcs = data::SoccerConstraints();
  std::string text = "# soccer constraints\n";
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    text += dcs.at(i).name() + ": " + dcs.at(i).ToString(schema) + "\n";
  }
  return text;
}

TEST(HostileInputTest, CorpusParses) {
  const auto dcs = dc::ParseDcSet(SoccerDcText(), data::SoccerSchema());
  ASSERT_TRUE(dcs.ok()) << dcs.status();
  EXPECT_EQ(dcs->size(), data::SoccerConstraints().size());
  for (const Table& table :
       {data::SoccerDirtyTable(),
        data::GenerateHospital({.num_rows = 40}).clean}) {
    const auto loaded = ReadCsv(WriteCsv(table));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->num_rows(), table.num_rows());
  }
}

TEST(HostileInputTest, MutatedDcTextReturnsStatus) {
  const Schema schema = data::SoccerSchema();
  const std::vector<std::string> corpus = {
      SoccerDcText(), "C1: !(t1.Team == t2.Team & t1.City != t2.City)\n",
      "forall t1,t2. not(t1[Year] >= t2[Year] and t1[Place] < 3)\n"};
  Rng rng(20071);
  std::size_t parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text =
        Mutate(corpus[rng.UniformUint64(corpus.size())], corpus, &rng);
    const auto dcs = dc::ParseDcSet(text, schema);
    if (!dcs.ok()) {
      EXPECT_FALSE(dcs.status().message().empty()) << text;
      continue;
    }
    ++parsed;
    for (std::size_t c = 0; c < dcs->size(); ++c) {
      for (std::size_t col : dcs->at(c).AllColumns()) {
        EXPECT_LT(col, schema.size()) << text;
      }
      EXPECT_FALSE(dcs->at(c).ToString(schema).empty());
    }
  }
  // The fuzz must reach both outcomes, or it tests one path only.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<std::size_t>(kIterations));
}

TEST(HostileInputTest, MutatedCsvReturnsStatus) {
  const std::vector<std::string> corpus = {
      WriteCsv(data::SoccerDirtyTable()),
      WriteCsv(data::GenerateHospital({.num_rows = 12}).clean)};
  Rng rng(4180);
  std::size_t loaded = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text =
        Mutate(corpus[rng.UniformUint64(corpus.size())], corpus, &rng);
    CsvOptions options;
    options.infer_types = rng.Bernoulli(0.5);
    const auto table = ReadCsv(text, options);
    if (!table.ok()) {
      EXPECT_FALSE(table.status().message().empty()) << text;
      continue;
    }
    ++loaded;
    // What a request does with a loaded table: copy it, hash it, write
    // a value new to the shared dictionary into the copy and compare.
    Table copy = *table;
    EXPECT_TRUE(copy == *table);
    EXPECT_EQ(copy.Fingerprint(), table->Fingerprint());
    if (copy.num_cells() > 0) {
      copy.Set(CellRef{0, 0}, Value("mutated\n\"cell\""));
      EXPECT_NE(copy.Fingerprint(), table->Fingerprint());
      EXPECT_FALSE(copy == *table);
    }
    const auto reloaded = ReadCsv(WriteCsv(*table), options);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_TRUE(*reloaded == *table) << text;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, static_cast<std::size_t>(kIterations));
}

}  // namespace
}  // namespace trex
