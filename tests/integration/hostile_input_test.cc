// Seeded mutation fuzz of the two text ingestion paths: `dc::ParseDcSet`
// and the CSV loader (`ReadCsv`), which interns every field into a table
// dictionary. Each mutated input must come back as a `Status` (ok or an
// error), never an abort; a table that loads holds in every cell a value
// of its column's type, and must survive the table operations a request
// runs on it; constraints that parse must evaluate. Besides byte edits,
// a mutation may replace a CSV field or a DC operand with a token that
// probes the value contract: NaN spellings, infinities, -0.0, an int
// past 2^53, and plain numbers that put ints into double columns. The
// corpus is the soccer constraints rendered as text, plus constraints
// over a double column, and the soccer, hospital and a double-column
// table written as CSV. The iteration counts keep the suite to a few
// seconds under the address and undefined-behavior sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "data/hospital.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"
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

/// Whole-field replacements (see the file comment).
constexpr const char* kTokens[] = {
    "nan", "NaN", "-nan", "inf", "-0.0", "9007199254740993", "7", "2.5"};

/// Replaces the CSV field or DC operand around `pos` (the text between
/// the nearest separators of either grammar) with a token.
void ReplaceField(std::string* text, std::size_t pos, Rng* rng) {
  constexpr std::string_view kSeparators = ",\n&()=<>! ";
  std::size_t begin = pos;
  while (begin > 0 && kSeparators.find((*text)[begin - 1]) ==
                          std::string_view::npos) {
    --begin;
  }
  std::size_t end = pos;
  while (end < text->size() &&
         kSeparators.find((*text)[end]) == std::string_view::npos) {
    ++end;
  }
  text->replace(begin, end - begin,
                kTokens[rng->UniformUint64(std::size(kTokens))]);
}

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
/// duplicated ranges, truncation, splices from another corpus entry, and
/// token fields.
std::string Mutate(const std::string& text,
                   const std::vector<std::string>& corpus, Rng* rng) {
  std::string out = text;
  const std::uint64_t num_edits = 1 + rng->UniformUint64(4);
  for (std::uint64_t edit = 0; edit < num_edits; ++edit) {
    const std::size_t pos = rng->UniformUint64(out.size() + 1);
    const std::size_t span = 1 + rng->UniformUint64(16);
    switch (rng->UniformUint64(7)) {
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
      case 5:
        ReplaceField(&out, pos, rng);
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

/// The soccer schema plus a double column.
Schema ScoredSoccerSchema() {
  std::vector<Attribute> attributes = data::SoccerSchema().attributes();
  attributes.push_back(Attribute{"Score", ValueType::kDouble});
  return Schema(std::move(attributes));
}

/// The soccer dirty table with a Score column, for evaluating parsed
/// constraints.
Table ScoredSoccerTable() {
  const Table soccer = data::SoccerDirtyTable();
  Table table(ScoredSoccerSchema());
  for (std::size_t r = 0; r < soccer.num_rows(); ++r) {
    std::vector<Value> row;
    for (std::size_t c = 0; c < soccer.num_columns(); ++c) {
      row.push_back(soccer.at(r, c));
    }
    row.push_back(Value(0.5 * static_cast<double>(r % 4)));
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

/// A CSV table with a double column and an int column.
constexpr char kScoresCsv[] =
    "Team,Score,Rank\nA,2.5,1\nB,1.5,2\nC,2.5,3\nD,-1.25,4\nE,0.5,5\n";

/// A value of `type` that no corpus cell holds.
Value FreshValue(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return Value(-424242);
    case ValueType::kDouble:
      return Value(-4242.5);
    default:
      return Value("mutated\n\"cell\"");
  }
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
        data::GenerateHospital({.num_rows = 40}).clean, ScoredSoccerTable(),
        *ReadCsv(kScoresCsv)}) {
    const auto loaded = ReadCsv(WriteCsv(table));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->num_rows(), table.num_rows());
  }
}

TEST(HostileInputTest, MutatedDcTextReturnsStatus) {
  const Schema schema = ScoredSoccerSchema();
  const Table table = ScoredSoccerTable();
  const std::vector<std::string> corpus = {
      SoccerDcText(), "C1: !(t1.Team == t2.Team & t1.City != t2.City)\n",
      "forall t1,t2. not(t1[Year] >= t2[Year] and t1[Place] < 3)\n",
      "C5: !(t1.Place == t2.Score & t1.Score >= 1.5 & t2.Year != 2017)\n"};
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
    // Constants of any type, against columns of any type, evaluate.
    for (const dc::Violation& v : dc::FindViolations(table, *dcs)) {
      EXPECT_LT(v.row1, table.num_rows());
    }
  }
  // The fuzz must reach both outcomes, or it tests one path only.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, static_cast<std::size_t>(kIterations));
}

TEST(HostileInputTest, MutatedCsvReturnsStatus) {
  const std::vector<std::string> corpus = {
      WriteCsv(data::SoccerDirtyTable()),
      WriteCsv(data::GenerateHospital({.num_rows = 12}).clean), kScoresCsv};
  Rng rng(4180);
  std::size_t loaded = 0;
  std::size_t nan_rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text =
        Mutate(corpus[rng.UniformUint64(corpus.size())], corpus, &rng);
    CsvOptions options;
    options.infer_types = rng.Bernoulli(0.5);
    const auto table = ReadCsv(text, options);
    if (!table.ok()) {
      EXPECT_FALSE(table.status().message().empty()) << text;
      nan_rejected += table.status().message().find("NaN") != std::string::npos;
      continue;
    }
    ++loaded;
    for (std::size_t r = 0; r < table->num_rows(); ++r) {
      for (std::size_t c = 0; c < table->num_columns(); ++c) {
        EXPECT_TRUE(table->CheckValue(c, table->at(r, c)).ok()) << text;
      }
    }
    // What a request does with a loaded table: copy it, hash it, write
    // a value new to the shared dictionary into the copy and compare.
    Table copy = *table;
    EXPECT_TRUE(copy == *table);
    EXPECT_EQ(copy.Fingerprint(), table->Fingerprint());
    if (copy.num_cells() > 0) {
      copy.Set(CellRef{0, 0}, FreshValue(copy.schema().attribute(0).type));
      EXPECT_NE(copy.Fingerprint(), table->Fingerprint());
      EXPECT_FALSE(copy == *table);
    }
    const auto reloaded = ReadCsv(WriteCsv(*table), options);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_TRUE(*reloaded == *table) << text;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, static_cast<std::size_t>(kIterations));
  EXPECT_GT(nan_rejected, 0u);  // the tokens reach the typed parse
}

}  // namespace
}  // namespace trex
