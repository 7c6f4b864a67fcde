// Property tests for the XOR-combinable table fingerprints: a delta
// computed from a cached base over a write set must equal the
// from-scratch `DualFingerprint` of the materialized table, for any
// randomized write set — that identity is what makes
// `BlackBoxRepair::EvalPerturbation` sound without materializing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "table/table.h"
#include "tests/serving/determinism_check.h"

namespace trex {
namespace {

/// A value of random type (null / int / double / string), the full tag
/// space the per-cell hash serializes.
Value RandomValue(Rng* rng) {
  switch (rng->UniformUint64(4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng->UniformInt(-1000, 1000));
    case 2:
      return Value(static_cast<double>(rng->UniformInt(-1000, 1000)) / 8.0);
    default:
      return Value("s" + std::to_string(rng->UniformUint64(50)));
  }
}

Table RandomTable(Rng* rng, std::size_t rows, std::size_t cols) {
  std::vector<Attribute> attributes;
  for (std::size_t c = 0; c < cols; ++c) {
    attributes.push_back(Attribute{"A" + std::to_string(c),
                                   ValueType::kString});
  }
  Table table{Schema(std::move(attributes))};
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (std::size_t c = 0; c < cols; ++c) {
      row.push_back(RandomValue(rng));
    }
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

/// Random write set over pairwise-distinct cells (the DeltaFingerprint
/// precondition); may include writes that re-state the current value
/// ("revert" no-ops).
std::vector<CellWrite> RandomWrites(Rng* rng, const Table& table,
                                    std::size_t count) {
  const std::vector<std::size_t> order =
      rng->Permutation(table.num_cells());
  std::vector<CellWrite> writes;
  for (std::size_t i = 0; i < count && i < order.size(); ++i) {
    const CellRef cell = table.FromLinearIndex(order[i]);
    // One in four writes re-states the current value: the delta must
    // cancel exactly (write-then-revert within one write set).
    const Value value =
        rng->UniformUint64(4) == 0 ? table.at(cell) : RandomValue(rng);
    writes.push_back({cell, value});
  }
  return writes;
}

Table Materialize(const Table& base, const std::vector<CellWrite>& writes) {
  Table out = base;
  for (const CellWrite& write : writes) out.Set(write.cell, write.value);
  return out;
}

TEST(DeltaFingerprintTest, MatchesFromScratchOnRandomizedWriteSets) {
  Rng rng(41);
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t rows = 1 + rng.UniformUint64(8);
    const std::size_t cols = 1 + rng.UniformUint64(5);
    const Table base = RandomTable(&rng, rows, cols);
    std::uint64_t base64 = 0;
    Hash128 base128;
    base.DualFingerprint(&base64, &base128);
    EXPECT_EQ(base64, base.Fingerprint());

    const std::vector<CellWrite> writes =
        RandomWrites(&rng, base, rng.UniformUint64(rows * cols + 1));
    std::uint64_t delta64 = 0;
    Hash128 delta128;
    base.DeltaFingerprint(base64, base128, writes, &delta64, &delta128);

    const Table materialized = Materialize(base, writes);
    EXPECT_EQ(delta64, materialized.Fingerprint());
    EXPECT_EQ(delta128, testing::Fingerprint128(materialized));
  }
}

TEST(DeltaFingerprintTest, WriteThenRevertComposesBackToBase) {
  Rng rng(43);
  for (std::size_t round = 0; round < 100; ++round) {
    const Table base = RandomTable(&rng, 6, 4);
    std::uint64_t base64 = 0;
    Hash128 base128;
    base.DualFingerprint(&base64, &base128);

    const std::vector<CellWrite> writes = RandomWrites(&rng, base, 7);
    std::uint64_t fwd64 = 0;
    Hash128 fwd128;
    base.DeltaFingerprint(base64, base128, writes, &fwd64, &fwd128);

    // Revert: from the materialized table, write the base values back.
    const Table materialized = Materialize(base, writes);
    std::vector<CellWrite> reverts;
    for (const CellWrite& write : writes) {
      reverts.push_back({write.cell, base.at(write.cell)});
    }
    std::uint64_t back64 = 0;
    Hash128 back128;
    materialized.DeltaFingerprint(fwd64, fwd128, reverts, &back64, &back128);
    EXPECT_EQ(back64, base64);
    EXPECT_EQ(back128, base128);
  }
}

TEST(DeltaFingerprintTest, NoOpWriteSetIsIdentity) {
  Rng rng(47);
  const Table base = RandomTable(&rng, 5, 3);
  std::uint64_t base64 = 0;
  Hash128 base128;
  base.DualFingerprint(&base64, &base128);
  // Re-stating current values shifts nothing; the empty set neither.
  std::vector<CellWrite> writes = {{CellRef{2, 1}, base.at(CellRef{2, 1})},
                                   {CellRef{0, 0}, base.at(CellRef{0, 0})}};
  std::uint64_t fp64 = 0;
  Hash128 fp128;
  base.DeltaFingerprint(base64, base128, writes, &fp64, &fp128);
  EXPECT_EQ(fp64, base64);
  EXPECT_EQ(fp128, base128);
  base.DeltaFingerprint(base64, base128, {}, &fp64, &fp128);
  EXPECT_EQ(fp64, base64);
  EXPECT_EQ(fp128, base128);
}

TEST(DeltaFingerprintTest, PositionKeyedNotJustValueKeyed) {
  // Swapping two different values between cells must change the
  // fingerprint: per-cell hashes are keyed by (row, col), so the XOR
  // of the swapped pair does not cancel.
  Table table(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(table.AppendRow({Value("x"), Value("y")}).ok());
  Table swapped(Schema::AllStrings({"A", "B"}));
  ASSERT_TRUE(swapped.AppendRow({Value("y"), Value("x")}).ok());
  EXPECT_NE(table.Fingerprint(), swapped.Fingerprint());
  EXPECT_NE(testing::Fingerprint128(table),
            testing::Fingerprint128(swapped));
}

}  // namespace
}  // namespace trex
