// The backend determinism harness: the contract the repair memo and the
// Shapley games depend on, checked for any `RepairAlgorithm` on any
// world. `Repair` must be a function of its inputs — repeated,
// concurrent and boxed runs on equal inputs return equal tables — and a
// box evaluating perturbations from several threads at once (through
// each thread's scratch, and its repair session when the backend opens
// one) must give every target the outcome a fresh `Repair` of the
// materialized input gives.

#ifndef TREX_TESTS_SERVING_DETERMINISM_CHECK_H_
#define TREX_TESTS_SERVING_DETERMINISM_CHECK_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/repair_game.h"
#include "repair/algorithm.h"
#include "table/diff.h"
#include "table/table.h"
#include "table/value.h"

namespace trex::testing {

/// Expects `got` to hold `want`'s schema and, cell by cell, its exact
/// values: `ExactlyEqual` (same type, same bytes), stricter than
/// `Table::operator==`, which equates 1 with 1.0, +0.0 with -0.0 and a
/// NaN with every number.
inline void ExpectSameBits(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_TRUE(got.schema() == want.schema()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (const CellRef& cell : want.AllCells()) {
    EXPECT_TRUE(ExactlyEqual(got.at(cell), want.at(cell)))
        << what << ": " << cell.ToString() << " holds "
        << got.at(cell).ToString() << ", want " << want.at(cell).ToString();
  }
}

/// Runs the determinism checks on `algorithm` over (`dcs`, `table`);
/// failures are reported through gtest. `seed` drives the perturbation
/// walk of the threaded box check.
inline void CheckDeterminism(const repair::RepairAlgorithm& algorithm,
                             const dc::DcSet& dcs, const Table& table,
                             std::uint64_t seed = 1) {
  auto reference = algorithm.Repair(dcs, table);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = algorithm.Repair(dcs, table);
    ASSERT_TRUE(again.ok());
    ExpectSameBits(*again, *reference, "repeated repair");
  }

  constexpr std::size_t kConcurrent = 4;
  ThreadPool pool(kConcurrent);
  std::vector<std::optional<Result<Table>>> concurrent(kConcurrent);
  pool.Run(kConcurrent, [&](std::size_t i) {
    concurrent[i] = algorithm.Repair(dcs, table);
  });
  for (const auto& result : concurrent) {
    ASSERT_TRUE(result.has_value() && result->ok());
    ExpectSameBits(**result, *reference, "concurrent repair");
  }

  // Every cell a target, so one evaluation checks the whole output.
  const std::vector<CellRef> targets = table.AllCells();
  auto box = BlackBoxRepair::MakeMultiTarget(&algorithm, dcs, table, targets);
  ASSERT_TRUE(box.ok()) << box.status();
  ExpectSameBits(box->reference_clean(), *reference, "boxed repair");

  // A walk of small steps over write sets (nulls, and values moved
  // within a column), like the coalitions of a sweep, with the
  // outcomes a fresh repair of each materialized input gives.
  Rng rng(seed);
  std::map<std::size_t, Value> walk;  // linear index -> written value
  std::vector<std::vector<CellWrite>> perturbations;
  std::vector<std::vector<bool>> expected;
  for (int step = 0; step < 16; ++step) {
    for (int change = 0; change < 2; ++change) {
      const std::size_t index = rng.UniformUint64(table.num_cells());
      const CellRef cell = table.FromLinearIndex(index);
      walk[index] = rng.Bernoulli(0.5)
                        ? Value::Null()
                        : table.at(rng.UniformUint64(table.num_rows()),
                                   cell.col);
    }
    std::vector<CellWrite>& writes = perturbations.emplace_back();
    Table materialized = table;
    for (const auto& [index, value] : walk) {
      writes.push_back({table.FromLinearIndex(index), value});
      materialized.Set(table.FromLinearIndex(index), value);
    }
    auto fresh = algorithm.Repair(dcs, materialized);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    std::vector<bool>& outcomes = expected.emplace_back();
    for (const CellRef& target : targets) {
      outcomes.push_back(CellRepairedTo(*fresh, box->reference_clean(),
                                        target));
    }
  }

  // Two threads walk the sequence in opposite directions through one
  // box, so their evaluations interleave. Memo on, they also answer
  // from each other's entries, every target per step. Memo off, every
  // evaluation repairs in the thread's own scratch, so a few targets per
  // step keep the run short.
  for (bool cache_enabled : {true, false}) {
    SCOPED_TRACE(cache_enabled ? "memo on" : "memo off");
    auto shared = BlackBoxRepair::MakeMultiTarget(&algorithm, dcs, table,
                                                  targets);
    ASSERT_TRUE(shared.ok()) << shared.status();
    shared->set_cache_enabled(cache_enabled);
    const std::size_t stride = cache_enabled ? 1 : 61;
    // got[thread][step]: (target, outcome) pairs.
    std::vector<std::vector<std::pair<std::size_t, bool>>> got[2];
    const auto evaluate = [&](int thread) {
      got[thread].resize(perturbations.size());
      for (std::size_t k = 0; k < perturbations.size(); ++k) {
        const std::size_t p =
            thread == 0 ? k : perturbations.size() - 1 - k;
        for (std::size_t t = p % stride; t < targets.size(); t += stride) {
          got[thread][p].emplace_back(
              t, shared->EvalPerturbation(perturbations[p], t));
        }
      }
    };
    std::thread other(evaluate, 1);
    evaluate(0);
    other.join();
    ASSERT_TRUE(shared->eval_error().ok()) << shared->eval_error();
    for (int thread = 0; thread < 2; ++thread) {
      for (std::size_t p = 0; p < perturbations.size(); ++p) {
        for (const auto& [t, outcome] : got[thread][p]) {
          ASSERT_EQ(outcome, expected[p][t])
              << "thread " << thread << " step " << p << " target "
              << targets[t].ToString();
        }
      }
    }
  }
}

}  // namespace trex::testing

#endif  // TREX_TESTS_SERVING_DETERMINISM_CHECK_H_
