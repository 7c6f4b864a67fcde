// Inputs, requests and output checks of the benchmark's workloads.
//
// Every input is derived from the `--seed` argument: an `Instance` is a
// generated soccer table with injected errors, and a `Job` is one
// distinct explanation request against it. The program under test only
// ever sees the generated tables and requests.
//
// Checks: every response is digested (values only, bit-exact), and each
// distinct job is replayed once, outside the timed window, on a fresh
// single-threaded `Engine`. The service must return exactly the replay's
// digest (the service/engine contract in core/engine.h). Exact constraint
// explanations must also satisfy efficiency, sum(phi) = v(N) - v(empty).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "table/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double UsSince(Clock::time_point from) {
  return UsBetween(from, Clock::now());
}

/// The `index`-th independent sub-seed of `seed` (splitmix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index);

/// One generated dirty table and the cells its reference repair changed.
struct Instance {
  std::shared_ptr<const trex::Table> dirty;
  trex::dc::DcSet dcs;
  /// City cells the backend's reference repair changed, in row order.
  /// Requests only ever target these, so "target not repaired" is never
  /// a failure. One target column keeps the pruned cell-game player set
  /// the same size from table to table.
  std::vector<trex::CellRef> targets;
  /// Per target: v(empty), i.e. whether the backend run with no
  /// constraints already writes the reference value into the target.
  std::vector<bool> repaired_without_constraints;
};

/// Generates a `rows`-row table from `seed`, injects City/Country swap
/// errors, runs the backend's reference repair and keeps its changed City
/// cells as targets. Re-derives the seed until at least one target exists.
Instance MakeInstance(std::size_t rows, std::uint64_t seed,
                      const trex::repair::RepairAlgorithm& backend);

/// One distinct request and what its check needs.
struct Job {
  std::shared_ptr<const Instance> instance;
  trex::ExplainRequest request;
  /// v(N) - v(empty) for the request's target.
  double grand_value = 0.0;
};

/// Exact constraint ranking of target `t` (paper Sec. 2.2).
Job ConstraintsJob(std::shared_ptr<const Instance> instance, std::size_t t);
/// Sampled cell ranking of target `t` with the null policy.
Job CellsJob(std::shared_ptr<const Instance> instance, std::size_t t,
             std::size_t sweeps, std::uint64_t seed);
/// Single-cell estimate of the Team cell in target `t`'s row.
Job SingleCellJob(std::shared_ptr<const Instance> instance, std::size_t t,
                  std::size_t samples, std::uint64_t seed);

/// Bit-exact digest of a result's values (kind, target, every ranked
/// player's label, value, error and sample count, the single-cell score).
/// Cost counters are left out: they differ between warm and fresh engines.
std::uint64_t Digest(const trex::ExplainResult& result);

/// False for an exact constraint explanation whose values do not sum to
/// v(N) - v(empty); true for every other kind.
bool SatisfiesEfficiency(const Job& job, const trex::ExplainResult& result);

/// One job replayed on a fresh single-threaded engine.
struct Replay {
  bool ok = false;
  std::uint64_t digest = 0;
  double explain_us = 0.0;
  /// Time inside the backend's `Repair` calls (traced replays only).
  double backend_us = 0.0;
  /// Backend calls, the reference repair included, and memo hits.
  std::size_t calls = 0;
  std::size_t hits = 0;
};

/// Replays `job` on a fresh `Engine` with one thread. With `timed`, the
/// backend is wrapped in a `TimingAlgorithm` so the replay splits its
/// time between the core and the backend.
Replay ReplayOnFreshEngine(
    std::shared_ptr<const trex::repair::RepairAlgorithm> backend,
    const Job& job, bool timed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
