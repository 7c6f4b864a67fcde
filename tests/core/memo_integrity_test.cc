// Memo-never-poisoned: a failed black-box evaluation must leave no
// `CacheEntry` behind, so a fault-then-retry
// sequence converges on exactly one correct memo entry and warm-path
// results bit-identical to a never-faulted run — across all four
// bundled repair backends.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/repair_game.h"
#include "data/soccer.h"
#include "repair/faulty.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"

namespace trex {
namespace {

using repair::FaultyAlgorithm;
using repair::FaultyOptions;

struct Backend {
  std::string label;
  std::shared_ptr<const repair::RepairAlgorithm> algorithm;
};

std::vector<Backend> AllBackends() {
  return {
      {"rule", repair::MakeAlgorithm1()},
      {"fd", std::make_shared<repair::FdRepair>()},
      {"holistic", std::make_shared<repair::HolisticRepair>()},
      {"holoclean", std::make_shared<repair::HoloCleanRepair>()},
  };
}

std::vector<CellWrite> PerturbedSoccer() {
  return {{data::SoccerCell(1, "Team"), Value::Null()}};
}

TEST(MemoIntegrityTest, FailedEvalWritesNoEntryAndRetryHealsAllBackends) {
  for (const Backend& backend : AllBackends()) {
    SCOPED_TRACE(backend.label);

    // Never-faulted twin: the ground truth for outcome bit-identity.
    auto clean_box = BlackBoxRepair::Make(
        backend.algorithm.get(), data::SoccerConstraints(),
        data::SoccerDirtyTable(), data::SoccerTargetCell());
    ASSERT_TRUE(clean_box.ok()) << clean_box.status();
    const std::vector<CellWrite> perturbed = PerturbedSoccer();
    const bool expected = clean_box->EvalPerturbation(perturbed);

    // Faulted twin: the reference repair (call 1) passes, the first
    // *eval* (call 2) fails transient.
    auto faulty = std::make_shared<FaultyAlgorithm>(
        "faulty-" + backend.label, backend.algorithm,
        FaultyOptions{.skip_first = 1, .fail_first = 1});
    auto box = BlackBoxRepair::Make(faulty.get(), data::SoccerConstraints(),
                                    data::SoccerDirtyTable(),
                                    data::SoccerTargetCell());
    ASSERT_TRUE(box.ok()) << box.status();
    box->BeginRequest(1);

    // The faulted eval records the error, fires the abort channel, and
    // — the invariant under test — writes NO memo entry.
    (void)box->EvalPerturbation(perturbed);
    EXPECT_EQ(faulty->injected_failures(), 1u);
    Status eval_error = box->eval_error();
    ASSERT_FALSE(eval_error.ok());
    EXPECT_EQ(eval_error.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(box->eval_abort_token().cancelled());
    EXPECT_EQ(box->num_table_memo_entries(), 0u);

    // Retry: a fresh request resets the failure channel; the schedule
    // has recovered, so the eval succeeds and memoizes exactly one
    // entry with the never-faulted outcome.
    box->BeginRequest(2);
    EXPECT_TRUE(box->eval_error().ok());
    EXPECT_FALSE(box->eval_abort_token().cancelled());
    const bool healed = box->EvalPerturbation(perturbed);
    EXPECT_EQ(healed, expected);
    EXPECT_EQ(box->num_table_memo_entries(), 1u);

    // Warm path: the retry's entry serves repeats without new repair
    // calls, still bit-identical.
    const std::size_t calls = faulty->calls();
    EXPECT_EQ(box->EvalPerturbation(perturbed), expected);
    EXPECT_EQ(faulty->calls(), calls);
    EXPECT_EQ(box->num_table_memo_entries(), 1u);
  }
}

}  // namespace
}  // namespace trex
