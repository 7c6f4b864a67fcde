// The three workloads and the measured window each one drives through
// `ExplainService`.
//
//   cells_cold         closed loop, one client: sampled cell rankings on
//                      fresh 100-row tables (every coalition misses the memo).
//   serving_warm       open loop, seeded exponential arrivals: an ~80/20
//                      mix of constraint and single-cell requests against
//                      three pre-warmed 1000-row tables.
//   constraints_large  closed loop, one client: one exact constraint
//                      ranking per fresh 5000-row table.
//
// The load comes from this one process: the calling thread is the
// client (and open-loop generator), the service runs at most three
// workers, and every engine runs single-threaded, so repair-call counts
// are exact.

#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client.h"
#include "repair/algorithm.h"
#include "serving/service.h"
#include "workload.h"

namespace perfbench {

struct Workload {
  std::string name;
  bool open_loop = false;
  std::size_t rows = 0;
  std::size_t workers = 1;
  std::size_t max_engines = 1;
};

/// The named workload, or nullopt for an unknown name.
std::optional<Workload> WorkloadByName(const std::string& name);

/// serving_warm's latency limit on p99, for `sustained_rps`.
constexpr double kLatencyLimitMs = 100.0;

/// One workload run: its set-up, measured window and the service that
/// served it (kept alive for the traced run's probes).
struct Run {
  Workload workload;
  std::uint64_t seed = 0;
  std::unique_ptr<Client> client;
  /// Every distinct request, by job index. A closed loop releases each
  /// request's `instance` once the next request has its engine; the last
  /// one is kept for the traced run's probes.
  std::deque<Job> jobs;
  /// serving_warm's shape pools: job indices of the constraint and the
  /// single-cell shapes.
  std::vector<std::size_t> constraint_jobs;
  std::vector<std::size_t> single_jobs;
  /// The measured window's requests.
  std::deque<Outcome> window;
  /// Requests outside the window (warm-up, ladder, probes): checked, not
  /// timed.
  std::deque<Outcome> extra;
  /// Seconds per set-up repetition: the run's own, then the repeats made
  /// after its window.
  std::vector<double> setup_s;
  /// Measured wall time of the window.
  double window_s = 0.0;
  Clock::time_point window_start;
  Clock::time_point window_end;
  trex::serving::ServiceStats before;
  trex::serving::ServiceStats after;
  /// Memo megabytes per resident engine: after each request (closed
  /// loops) or at the end of the window (open loop).
  std::vector<double> memo_mb;
  /// Backend calls charged to the window's explanations: the window's
  /// own on a closed loop; warm-up included on the open loop, whose
  /// warm requests call the backend almost never.
  std::size_t charged_calls = 0;
  /// The open loop's ladder capacity estimate.
  double sustained_rps = 0.0;
  double peak_rss_mb = 0.0;
  /// The backend inputs and check replays use, and each distinct job's
  /// replay on a fresh engine, timed through a `TimingAlgorithm` when
  /// `timed_replays`.
  std::shared_ptr<const trex::repair::RepairAlgorithm> backend;
  bool timed_replays = false;
  std::map<std::size_t, Replay> replays;
};

/// Runs `workload` from `seed` for `seconds` of measured window. The
/// service calls `service_backend` (a `TimingAlgorithm` in the traced
/// run); inputs, targets and check replays use `backend`. `ladder` adds
/// the open-loop rate ladder for `sustained_rps`. The check replays of
/// every request sent run after the window and after `peak_rss_mb` was
/// read, so it holds only the service's memory.
Run RunWorkload(const Workload& workload, std::uint64_t seed, double seconds,
                std::shared_ptr<const trex::repair::RepairAlgorithm> backend,
                std::shared_ptr<const trex::repair::RepairAlgorithm>
                    service_backend,
                bool ladder, bool timed_replays);

/// `job`'s replay on a fresh single-threaded engine, made on first use.
const Replay& EnsureReplay(Run* run, std::size_t job);

/// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
