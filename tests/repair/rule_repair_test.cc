#include "repair/rule_repair.h"
#include "repair/soccer_algorithm1.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "dc/parser.h"
#include "dc/violation.h"
#include "tests/serving/determinism_check.h"

namespace trex::repair {
namespace {

using repair::MakeAlgorithm1;
using data::SoccerCleanTable;
using data::SoccerConstraints;
using data::SoccerDirtyTable;
using testing::ExpectSameBits;

TEST(RuleRepairTest, Algorithm1ReproducesFigure2) {
  auto alg = MakeAlgorithm1();
  auto clean = alg->Repair(SoccerConstraints(), SoccerDirtyTable());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(*clean, SoccerCleanTable());
}

TEST(RuleRepairTest, RepairOnlyTouchesDirtyCells) {
  auto alg = MakeAlgorithm1();
  auto clean = alg->Repair(SoccerConstraints(), SoccerDirtyTable());
  ASSERT_TRUE(clean.ok());
  const Table dirty = SoccerDirtyTable();
  std::size_t changed = 0;
  for (const CellRef& cell : dirty.AllCells()) {
    if (dirty.at(cell) != clean->at(cell)) ++changed;
  }
  EXPECT_EQ(changed, 2u);  // t5[City] and t5[Country]
}

TEST(RuleRepairTest, CleanTableIsFixpoint) {
  auto alg = MakeAlgorithm1();
  auto again = alg->Repair(SoccerConstraints(), SoccerCleanTable());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, SoccerCleanTable());
}

TEST(RuleRepairTest, Deterministic) {
  auto alg = MakeAlgorithm1();
  auto a = alg->Repair(SoccerConstraints(), SoccerDirtyTable());
  auto b = alg->Repair(SoccerConstraints(), SoccerDirtyTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RuleRepairTest, DoesNotMutateInput) {
  auto alg = MakeAlgorithm1();
  const Table dirty = SoccerDirtyTable();
  Table copy = dirty;
  ASSERT_TRUE(alg->Repair(SoccerConstraints(), copy).ok());
  EXPECT_EQ(copy, dirty);
}

// The subset semantics drive the paper's Example 2.3: the characteristic
// function must be v(S) = 1 iff {C1,C2} ⊆ S or C3 ∈ S.
TEST(RuleRepairTest, SubsetSemanticsMatchExample23) {
  auto alg = MakeAlgorithm1();
  const dc::DcSet all = SoccerConstraints();
  const Table dirty = SoccerDirtyTable();
  const CellRef target = data::SoccerTargetCell();
  const Value want("Spain");

  for (std::uint64_t mask = 0; mask < 16; ++mask) {
    const dc::DcSet subset = all.Subset(mask);
    auto repaired = alg->Repair(subset, dirty);
    ASSERT_TRUE(repaired.ok());
    const bool has_c1 = mask & 1;
    const bool has_c2 = mask & 2;
    const bool has_c3 = mask & 4;
    const bool expect_repair = (has_c1 && has_c2) || has_c3;
    EXPECT_EQ(repaired->at(target) == want, expect_repair)
        << "mask=" << mask;
  }
}

TEST(RuleRepairTest, CityRepairNeedsC1) {
  // Example 2.2: t5[City] flips to Madrid iff C1 is present.
  auto alg = MakeAlgorithm1();
  const dc::DcSet all = SoccerConstraints();
  const Table dirty = SoccerDirtyTable();
  const CellRef city = data::SoccerCell(5, "City");

  auto with_c1 = alg->Repair(all.Subset(0b0111), dirty);
  ASSERT_TRUE(with_c1.ok());
  EXPECT_EQ(with_c1->at(city), Value("Madrid"));

  auto without_c1 = alg->Repair(all.Subset(0b0110), dirty);
  ASSERT_TRUE(without_c1.ok());
  EXPECT_EQ(without_c1->at(city), Value("Capital"));
}

TEST(RuleRepairTest, EmptyConstraintSetIsIdentity) {
  auto alg = MakeAlgorithm1();
  auto repaired = alg->Repair(dc::DcSet{}, SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, SoccerDirtyTable());
}

TEST(RuleRepairTest, RulesForMissingConstraintsSkipped) {
  // An algorithm with a rule bound to "C9" (absent) must not fail.
  std::vector<RepairRule> rules{
      {"C9", RuleAction::kSetMostCommon, "City", ""}};
  RuleRepair alg("test", std::move(rules));
  auto repaired = alg.Repair(SoccerConstraints(), SoccerDirtyTable());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, SoccerDirtyTable());
}

TEST(RuleRepairTest, UnknownTargetAttributeFails) {
  std::vector<RepairRule> rules{
      {"C1", RuleAction::kSetMostCommon, "Nope", ""}};
  RuleRepair alg("test", std::move(rules));
  EXPECT_FALSE(alg.Repair(SoccerConstraints(), SoccerDirtyTable()).ok());
}

TEST(RuleRepairTest, HandlesNulledTables) {
  // Coalition-style tables (many nulls) must repair without error.
  auto alg = MakeAlgorithm1();
  Table masked = SoccerDirtyTable();
  for (const CellRef cell :
       {data::SoccerCell(5, "City"), data::SoccerCell(1, "Team"),
        data::SoccerCell(3, "Country")}) {
    masked.Set(cell, Value::Null());
  }
  auto repaired = alg->Repair(SoccerConstraints(), masked);
  ASSERT_TRUE(repaired.ok());
}

TEST(RuleRepairTest, NullCityTriggersC1RepairViaInequality) {
  // t5[City] = null: null != 'Madrid' holds, so C1 fires and the most
  // common city replaces the null.
  auto alg = MakeAlgorithm1();
  Table dirty = SoccerDirtyTable();
  dirty.Set(data::SoccerCell(5, "City"), Value::Null());
  auto repaired = alg->Repair(SoccerConstraints(), dirty);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->at(data::SoccerCell(5, "City")), Value("Madrid"));
}

TEST(RuleRepairTest, MultiPassReachesFixpoint) {
  const Schema schema = Schema::AllStrings({"Team", "City", "Country"});
  auto dcs = dc::ParseDcSet(R"(
C1: !(t1.Team == t2.Team & t1.City != t2.City)
C2: !(t1.City == t2.City & t1.Country != t2.Country)
)",
                            schema);
  ASSERT_TRUE(dcs.ok());
  Table dirty(schema);
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Madrid"), Value("Spain")})
          .ok());
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Madrid"), Value("Spain")})
          .ok());
  ASSERT_TRUE(
      dirty.AppendRow({Value("Real"), Value("Capital"), Value("España")})
          .ok());

  // Rules in REVERSE dependency order: the Country rule runs before the
  // City rule, so pass 1 fixes City only; pass 2 then fixes Country.
  std::vector<RepairRule> rules{
      {"C2", RuleAction::kSetMostCommonGiven, "Country", "City"},
      {"C1", RuleAction::kSetMostCommon, "City", ""}};

  RuleRepair one_pass("one", rules, RuleRepairOptions{1});
  auto after_one = one_pass.Repair(*dcs, dirty);
  ASSERT_TRUE(after_one.ok());
  EXPECT_EQ(after_one->at(2, 1), Value("Madrid"));
  EXPECT_EQ(after_one->at(2, 2), Value("España"));

  RuleRepair two_pass("two", rules, RuleRepairOptions{2});
  auto after_two = two_pass.Repair(*dcs, dirty);
  ASSERT_TRUE(after_two.ok());
  EXPECT_EQ(after_two->at(2, 2), Value("Spain"));
}

TEST(RuleRepairTest, InfluenceGraphIsPrecise) {
  auto alg = MakeAlgorithm1();
  const dc::DcSet dcs = SoccerConstraints();
  const Schema schema = data::SoccerSchema();
  auto graph = alg->InfluenceGraph(dcs, schema);
  ASSERT_TRUE(graph.has_value());
  // Influencers of Country: {Team, City, Country, League} — not Place,
  // not Year (hence the paper's t1[Place] has Shapley 0).
  const auto influencers =
      graph->InfluencingColumns(*schema.IndexOf("Country"));
  EXPECT_EQ(influencers,
            (std::set<std::size_t>{*schema.IndexOf("Team"),
                                   *schema.IndexOf("City"),
                                   *schema.IndexOf("Country"),
                                   *schema.IndexOf("League")}));
}

TEST(RuleRepairTest, NameIsReported) {
  EXPECT_EQ(MakeAlgorithm1()->name(), "algorithm-1");
}

// ---- Repair sessions ------------------------------------------------------

struct World {
  Table dirty;
  dc::DcSet dcs;
};

/// A 40-row generated soccer world with swap, typo and missing errors
/// over every column.
World SessionWorld(std::uint64_t seed) {
  auto generated = data::GenerateSoccer({.num_rows = 40, .seed = seed});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.1;
  inject.seed = seed + 1;
  return World{data::InjectErrors(generated.clean, inject).dirty,
               std::move(generated.dcs)};
}

/// The world with its int Place column (the target of rule 4) retyped
/// double, so the rule's counters run over doubles.
World WithDoublePlace(const World& world) {
  std::vector<Attribute> attributes = world.dirty.schema().attributes();
  const std::size_t place = *world.dirty.schema().IndexOf("Place");
  attributes[place].type = ValueType::kDouble;
  Table table{Schema(std::move(attributes))};
  for (std::size_t r = 0; r < world.dirty.num_rows(); ++r) {
    std::vector<Value> row;
    for (std::size_t c = 0; c < world.dirty.num_columns(); ++c) {
      const Value& v = world.dirty.at(r, c);
      row.push_back(c == place && !v.is_null()
                        ? Value(static_cast<double>(v.as_int()))
                        : v);
    }
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return World{std::move(table), world.dcs};
}

/// Drives a session over a copy of `dirty` through `rounds` random write
/// sequences — nulls, swaps within a column, restores to the dirty
/// value, extreme numbers in numeric columns (ints 2^53 and 2^53 + 1,
/// which one double cannot tell apart; ±0.0 and ±inf), and fresh strings
/// in a `!=` column (City, Country, Team), where a NaN or an int is
/// rejected — and checks, after
/// each `RepairCodes`, that the bound table equals a one-shot `Repair`
/// of the materialized input bit for bit, and that replaying the undo
/// log in reverse through `SetCode` restores the input bit for bit.
void CheckSessionMatchesRepair(const RepairAlgorithm& alg,
                               const dc::DcSet& dcs, const Table& dirty,
                               std::uint64_t seed, int rounds = 12) {
  const Schema& schema = dirty.schema();
  const std::vector<std::size_t> neq_cols = {*schema.IndexOf("City"),
                                             *schema.IndexOf("Country"),
                                             *schema.IndexOf("Team")};
  Table bound = dirty;
  std::unique_ptr<RepairSession> session = alg.OpenSession(dcs, &bound);
  ASSERT_NE(session, nullptr);
  Rng rng(seed);
  const auto random_cell = [&]() {
    return CellRef{rng.UniformUint64(dirty.num_rows()),
                   rng.UniformUint64(dirty.num_columns())};
  };
  for (int round = 0; round < rounds; ++round) {
    const std::string what =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    const std::uint64_t num_ops = 1 + rng.UniformUint64(6);
    for (std::uint64_t op = 0; op < num_ops; ++op) {
      const CellRef cell = random_cell();
      switch (rng.UniformUint64(6)) {
        case 0:
        case 1:
          session->SetCode(cell, kNullCode);
          break;
        case 2: {
          const CellRef other{rng.UniformUint64(dirty.num_rows()), cell.col};
          const std::uint32_t held = bound.code(cell);
          session->SetCode(cell, bound.code(other));
          session->SetCode(other, held);
          break;
        }
        case 3:
          session->SetCode(cell, bound.Intern(dirty.at(cell)));
          break;
        case 4: {
          constexpr double kInf = std::numeric_limits<double>::infinity();
          constexpr double kDoubles[] = {0.0, -0.0, kInf, -kInf};
          const ValueType type = schema.attribute(cell.col).type;
          if (type == ValueType::kInt) {
            session->SetCode(cell, bound.Intern(Value(std::int64_t{
                                       (1LL << 53) + rng.Bernoulli(0.5)})));
          } else if (type == ValueType::kDouble) {
            session->SetCode(
                cell, bound.Intern(Value(kDoubles[rng.UniformUint64(4)])));
          }
          break;
        }
        default: {
          const CellRef neq{cell.row, neq_cols[rng.UniformUint64(3)]};
          EXPECT_FALSE(
              bound.CheckValue(neq.col, Value(std::int64_t{(1LL << 53) + 1}))
                  .ok());
          EXPECT_FALSE(
              bound
                  .CheckValue(neq.col,
                              Value(std::numeric_limits<double>::quiet_NaN()))
                  .ok());
          session->SetCode(neq, bound.Intern(Value(
                                    "fresh " +
                                    std::to_string(rng.UniformUint64(3)))));
          break;
        }
      }
    }
    const Table input = bound;
    auto want = alg.Repair(dcs, input);
    ASSERT_TRUE(want.ok()) << want.status();
    std::vector<CodeWrite> undo;
    ASSERT_TRUE(session->RepairCodes(&undo).ok()) << what;
    ExpectSameBits(bound, *want, what + " repaired");
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      session->SetCode(it->cell, it->code);
    }
    ExpectSameBits(bound, input, what + " undone");
  }
}

class RuleRepairSessionTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RuleRepairSessionTest, MatchesRepairOnEveryRound) {
  const World world = SessionWorld(GetParam());
  CheckSessionMatchesRepair(*MakeAlgorithm1(), world.dcs, world.dirty,
                            GetParam());
}

TEST_P(RuleRepairSessionTest, DoubleColumnMatchesRepair) {
  const World world = WithDoublePlace(SessionWorld(GetParam()));
  CheckSessionMatchesRepair(*MakeAlgorithm1(), world.dcs, world.dirty,
                            GetParam() + 4000);
}

TEST_P(RuleRepairSessionTest, MultiPassMatchesRepair) {
  const World world = SessionWorld(GetParam());
  RuleRepair three_pass("three", MakeAlgorithm1()->rules(),
                        RuleRepairOptions{3});
  CheckSessionMatchesRepair(three_pass, world.dcs, world.dirty,
                            GetParam() + 1000);
}

TEST_P(RuleRepairSessionTest, SelfConditionedRuleMatchesRepair) {
  // given == target keeps the build-per-query path and no joint counter.
  const World world = SessionWorld(GetParam());
  std::vector<RepairRule> rules = MakeAlgorithm1()->rules();
  rules.push_back(
      {"C3", RuleAction::kSetMostCommonGiven, "Country", "Country"});
  RuleRepair alg("self-conditioned", std::move(rules), RuleRepairOptions{2});
  CheckSessionMatchesRepair(alg, world.dcs, world.dirty, GetParam() + 2000);
}

TEST_P(RuleRepairSessionTest, RuleForAbsentConstraintMatchesRepair) {
  // Without C3, rule 3 is skipped in the session as in `Repair`.
  const World world = SessionWorld(GetParam());
  CheckSessionMatchesRepair(*MakeAlgorithm1(), world.dcs.Without(2),
                            world.dirty, GetParam() + 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleRepairSessionTest,
                         ::testing::Values(7, 19, 23, 41, 58));

TEST(RuleRepairTest, SessionReportsResolutionErrorsLikeRepair) {
  std::vector<RepairRule> rules{
      {"C1", RuleAction::kSetMostCommon, "Nope", ""}};
  RuleRepair alg("test", std::move(rules));
  Table bound = SoccerDirtyTable();
  auto session = alg.OpenSession(SoccerConstraints(), &bound);
  ASSERT_NE(session, nullptr);
  session->SetCode(data::SoccerCell(5, "City"), kNullCode);  // still safe
  EXPECT_TRUE(bound.at(data::SoccerCell(5, "City")).is_null());
  const Status status = session->RepairCodes(nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(),
            alg.Repair(SoccerConstraints(), SoccerDirtyTable())
                .status()
                .code());
}

}  // namespace
}  // namespace trex::repair
