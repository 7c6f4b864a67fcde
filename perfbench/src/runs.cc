#include "runs.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "common/random.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Set-up repetitions per run; `setup_s` reports their trimmed mean.
constexpr std::size_t kSetupRepeats = 9;
/// Closed loops prepare this many inputs during set-up.
constexpr std::size_t kColdSetupInputs = 4;
/// cells_cold: permutation sweeps per request.
constexpr std::size_t kCellSweeps = 2;
/// serving_warm: tables, constraint targets and single-cell shapes per
/// table, single-cell budget and share of the mix.
constexpr std::size_t kWarmTables = 3;
constexpr std::size_t kWarmConstraintTargets = 4;
constexpr std::size_t kWarmSingleCellShapes = 1;
constexpr std::size_t kSingleCellSamples = 16;
constexpr double kSingleCellShare = 0.2;
/// serving_warm: the main window's arrival rate, the ladder's first rung.
constexpr double kWarmRate = 200.0;
/// The ladder for `sustained_rps` first doubles the rate from `kWarmRate`
/// while rungs pass, at most `kLadderDoublings` times. A doubling fails
/// only when it fails twice, so one stall of the host does not end the
/// climb. That brackets the capacity between the last passing rate r and
/// 2r. The ladder then tries the `kFineRungs` rates r * 2^(i/8), i = 1..7,
/// and reports r * 2^(n/8) for the n of them that pass. Counting passes,
/// rather than stopping at the first failure, makes one unlucky rung cost
/// one step of 2^(1/8), about 9%, and not half the bracket.
constexpr int kLadderDoublings = 5;
constexpr int kFineRungs = 7;
/// Share of an untraced serving_warm run spent on the main window. The
/// rest is split evenly over `kLadderRungs` rungs: three doublings (past
/// 200, 400 and 800/s), one repeat of the failing one, and the fine rungs.
constexpr double kMainShare = 0.6;
constexpr int kLadderRungs = 4 + kFineRungs;

trex::serving::ServiceOptions ServiceOptionsFor(const Workload& workload) {
  trex::serving::ServiceOptions options;
  options.num_workers = workload.workers;
  options.router.max_engines = workload.max_engines;
  options.router.engine_options.num_threads = 1;
  return options;
}

// ---- closed loops: cells_cold, constraints_large ----

Job ColdJob(const Workload& workload, std::uint64_t seed, std::size_t index,
            const trex::repair::RepairAlgorithm& backend) {
  const std::uint64_t job_seed = DeriveSeed(seed, index);
  auto instance = std::make_shared<const Instance>(
      MakeInstance(workload.rows, job_seed, backend));
  trex::Rng rng(DeriveSeed(job_seed, 2));
  const std::size_t target = rng.Index(instance->targets.size());
  if (workload.name == "cells_cold") {
    return CellsJob(std::move(instance), target, kCellSweeps,
                    DeriveSeed(job_seed, 3));
  }
  return ConstraintsJob(std::move(instance), target);
}

/// A closed loop's set-up: the service and the first inputs (generation,
/// error injection, target selection). There is nothing to warm: every
/// request meets a fresh table.
void SetUpClosedLoop(const std::shared_ptr<
                         const trex::repair::RepairAlgorithm>& service_backend,
                     std::uint64_t seed, Run* run) {
  run->client = std::make_unique<Client>(ServiceOptionsFor(run->workload),
                                         service_backend);
  for (std::size_t i = 0; i < kColdSetupInputs; ++i) {
    run->jobs.push_back(ColdJob(run->workload, seed, i, *run->backend));
  }
}

void RunClosedLoop(double seconds, std::uint64_t seed, Run* run) {
  const Workload& workload = run->workload;
  const trex::repair::RepairAlgorithm& backend = *run->backend;
  Client& client = *run->client;
  run->before = client.service().stats();
  run->window_start = Clock::now();
  // Each request's input is prepared between requests, outside its timed
  // window. Check replays run after the window (`RunWorkload`), so a replay
  // engine never sits beside the service's and the peak RSS is the
  // program's alone.
  for (std::size_t next = 0; run->window_s < seconds; ++next) {
    if (run->jobs.size() <= next) {
      run->jobs.push_back(ColdJob(workload, seed, next, backend));
    }
    run->window.emplace_back();
    const Outcome& outcome = run->window.back();
    client.Send(run->jobs[next], next, Clock::now(), &run->window.back());
    DrainOrDie(client);
    run->window_s += 1e-6 * UsBetween(outcome.due, outcome.done);
    const trex::serving::ServiceStats stats = client.service().stats();
    run->memo_mb.push_back(
        1e-6 * static_cast<double>(stats.router.approx_memo_bytes) /
        static_cast<double>(std::max<std::size_t>(1, stats.router.resident)));
    // The router evicted the previous request's engine for this one, so
    // nothing of the program holds its input any more. Releasing it keeps
    // the benchmark's inputs out of `peak_rss_mb`; its check replay
    // regenerates it from the seed.
    if (next > 0) run->jobs[next - 1].instance.reset();
  }
  run->window_end = Clock::now();
  run->after = client.service().stats();
  run->peak_rss_mb = PeakRssMb();
  // Each fresh engine charges its reference repair to no request.
  run->charged_calls = run->after.router.misses - run->before.router.misses;
  for (const Outcome& outcome : run->window) {
    run->charged_calls += outcome.calls;
  }
}

// ---- open loop: serving_warm ----

struct Arrival {
  double offset_s = 0.0;
  std::size_t job = 0;
};

/// Poisson arrivals at `rate` for `seconds`: ~`kSingleCellShare` of them
/// single-cell shapes, the rest constraint shapes, each uniform in its pool.
std::vector<Arrival> Schedule(double rate, double seconds, std::uint64_t seed,
                              const std::vector<std::size_t>& constraint_jobs,
                              const std::vector<std::size_t>& single_jobs) {
  trex::Rng rng(seed);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    const std::vector<std::size_t>& pool =
        rng.UniformDouble() < kSingleCellShare ? single_jobs : constraint_jobs;
    arrivals.push_back(Arrival{t, pool[rng.Index(pool.size())]});
  }
  return arrivals;
}

/// Sends every arrival when due (late when the generator falls behind)
/// and waits for all responses. The generator spins to each due time
/// rather than sleeping: on a virtual machine a timer wake-up can come
/// milliseconds late, which would charge the host's scheduling to the
/// system under test.
void Play(Client& client, const std::deque<Job>& jobs,
          const std::vector<Arrival>& arrivals, std::deque<Outcome>* out) {
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(1);
  for (const Arrival& arrival : arrivals) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.offset_s));
    while (Clock::now() < due) {
    }
    out->emplace_back();
    client.Send(jobs[arrival.job], arrival.job, due, &out->back());
  }
  DrainOrDie(client);
}

/// A ladder rung passes when every request succeeded, p99 latency and
/// p99 generator lag stay under the limit, and the queue did not grow.
bool RungPasses(double rate, const std::deque<Outcome>& outcomes,
                std::size_t from) {
  std::vector<double> latency;
  std::vector<double> lag;
  std::vector<double> depth;
  for (std::size_t i = from; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) return false;
    latency.push_back(outcomes[i].LatencyMs());
    lag.push_back(outcomes[i].LagMs());
    depth.push_back(outcomes[i].depth);
  }
  const bool passes = !latency.empty() &&
                     Percentile(latency, 99) <= kLatencyLimitMs &&
                     Percentile(lag, 99) <= kLatencyLimitMs &&
                     !BacklogGrowing(depth);
  std::printf("rung %.1f/s: %zu requests, p99 %.3f ms, lag p99 %.3f ms, "
              "mean depth %.2f -> %s\n",
              rate, latency.size(), Percentile(latency, 99), Percentile(lag, 99),
              Mean(depth), passes ? "pass" : "fail");
  return passes;
}

/// serving_warm's set-up: the tables, their reference repairs and
/// targets, the shape pools, and a warm-up pass through the service that
/// evaluates every shape once.
void SetUpOpenLoop(const std::shared_ptr<
                       const trex::repair::RepairAlgorithm>& service_backend,
                   std::uint64_t seed, Run* run) {
  for (std::size_t t = 0; t < kWarmTables; ++t) {
    const std::uint64_t table_seed = DeriveSeed(seed, t);
    auto instance = std::make_shared<const Instance>(
        MakeInstance(run->workload.rows, table_seed, *run->backend));
    std::vector<std::size_t> order(instance->targets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    trex::Rng rng(DeriveSeed(table_seed, 2));
    rng.Shuffle(&order);
    for (std::size_t i = 0; i < std::min(kWarmConstraintTargets, order.size());
         ++i) {
      run->constraint_jobs.push_back(run->jobs.size());
      run->jobs.push_back(ConstraintsJob(instance, order[i]));
    }
    for (std::size_t i = 0; i < std::min(kWarmSingleCellShapes, order.size());
         ++i) {
      run->single_jobs.push_back(run->jobs.size());
      run->jobs.push_back(SingleCellJob(instance, order[i], kSingleCellSamples,
                                        DeriveSeed(table_seed, 3 + i)));
    }
  }
  run->client = std::make_unique<Client>(ServiceOptionsFor(run->workload),
                                         service_backend);
  for (std::size_t j = 0; j < run->jobs.size(); ++j) {
    run->extra.emplace_back();
    run->client->Send(run->jobs[j], j, Clock::now(), &run->extra.back());
    DrainOrDie(*run->client);
  }
}

void RunOpenLoop(double seconds, bool ladder, std::uint64_t seed, Run* run) {
  Client& client = *run->client;
  run->before = client.service().stats();
  const double main_s = ladder ? kMainShare * seconds : seconds;
  Play(client, run->jobs,
       Schedule(kWarmRate, main_s, DeriveSeed(seed, 100), run->constraint_jobs,
                run->single_jobs),
       &run->window);
  run->after = client.service().stats();
  run->peak_rss_mb = PeakRssMb();
  run->window_start = run->window.front().due;
  run->window_end = run->window.front().done;
  for (const Outcome& outcome : run->window) {
    run->window_end = std::max(run->window_end, outcome.done);
  }
  run->window_s = 1e-6 * UsBetween(run->window_start, run->window_end);
  run->memo_mb.push_back(
      1e-6 * static_cast<double>(run->after.router.approx_memo_bytes) /
      static_cast<double>(std::max<std::size_t>(1, run->after.router.resident)));
  // Every backend call the engines made, warm-up and reference repairs
  // included, amortized over the window's explanations.
  run->charged_calls = run->after.router.misses;
  for (const Outcome& outcome : run->extra) run->charged_calls += outcome.calls;
  for (const Outcome& outcome : run->window) {
    run->charged_calls += outcome.calls;
  }

  if (!ladder) return;
  // The main window is the ladder's first rung.
  if (!RungPasses(kWarmRate, run->window, 0)) return;
  const double rung_s = (1.0 - kMainShare) * seconds / kLadderRungs;
  std::uint64_t rung = 0;
  auto rate_passes = [&](double rate) {
    const std::size_t from = run->extra.size();
    Play(client, run->jobs,
         Schedule(rate, rung_s, DeriveSeed(seed, 101 + rung++),
                  run->constraint_jobs, run->single_jobs),
         &run->extra);
    return RungPasses(rate, run->extra, from);
  };
  double pass = kWarmRate;
  for (int d = 0; d < kLadderDoublings; ++d) {
    const double rate = 2.0 * pass;
    if (!rate_passes(rate) && !rate_passes(rate)) break;
    pass = rate;
  }
  int fine_passes = 0;
  for (int i = 1; i <= kFineRungs; ++i) {
    if (rate_passes(pass * std::exp2(i / (kFineRungs + 1.0)))) ++fine_passes;
  }
  run->sustained_rps = pass * std::exp2(fine_passes / (kFineRungs + 1.0));
}

}  // namespace

std::optional<Workload> WorkloadByName(const std::string& name) {
  if (name == "cells_cold") {
    return Workload{name, /*open_loop=*/false, /*rows=*/100, /*workers=*/1,
                    /*max_engines=*/1};
  }
  if (name == "serving_warm") {
    return Workload{name, /*open_loop=*/true, /*rows=*/1000, /*workers=*/3,
                    /*max_engines=*/kWarmTables};
  }
  if (name == "constraints_large") {
    return Workload{name, /*open_loop=*/false, /*rows=*/5000, /*workers=*/1,
                    /*max_engines=*/1};
  }
  return std::nullopt;
}

Run RunWorkload(const Workload& workload, std::uint64_t seed, double seconds,
                std::shared_ptr<const trex::repair::RepairAlgorithm> backend,
                std::shared_ptr<const trex::repair::RepairAlgorithm>
                    service_backend,
                bool ladder, bool timed_replays) {
  Run run;
  run.workload = workload;
  run.seed = seed;
  run.backend = std::move(backend);
  run.timed_replays = timed_replays;
  auto set_up = [&](Run* into) {
    const Clock::time_point start = Clock::now();
    if (workload.open_loop) {
      SetUpOpenLoop(service_backend, seed, into);
    } else {
      SetUpClosedLoop(service_backend, seed, into);
    }
    run.setup_s.push_back(UsSince(start) * 1e-6);
  };
  set_up(&run);
  if (workload.open_loop) {
    RunOpenLoop(seconds, ladder, seed, &run);
  } else {
    RunClosedLoop(seconds, seed, &run);
  }
  // After the window: the check replays of every request sent, with the
  // other set-ups timed for `setup_s` spread evenly among them. A core of
  // a shared host can run ~1.6x slower for seconds at a time; spread out,
  // the set-ups sample it over as long a stretch as the replays instead of
  // one moment. The set-ups run into throwaway runs: the heap they leave
  // behind would otherwise count in `peak_rss_mb`.
  std::vector<std::size_t> sent;
  for (const std::deque<Outcome>* outcomes : {&run.window, &run.extra}) {
    for (const Outcome& outcome : *outcomes) sent.push_back(outcome.job);
  }
  for (std::size_t repeat = 1; repeat < kSetupRepeats; ++repeat) {
    for (std::size_t i = sent.size() * (repeat - 1) / (kSetupRepeats - 1);
         i < sent.size() * repeat / (kSetupRepeats - 1); ++i) {
      EnsureReplay(&run, sent[i]);
    }
    Run discard;
    discard.workload = workload;
    discard.backend = run.backend;
    set_up(&discard);
  }
  return run;
}

const Replay& EnsureReplay(Run* run, std::size_t job) {
  auto it = run->replays.find(job);
  if (it == run->replays.end()) {
    Job& input = run->jobs[job];
    // A closed loop released this input after its request; the same seed
    // regenerates it bit for bit (a different input would fail the check).
    const bool released = input.instance == nullptr;
    if (released) input = ColdJob(run->workload, run->seed, job, *run->backend);
    it = run->replays
             .emplace(job, ReplayOnFreshEngine(run->backend, input,
                                               run->timed_replays))
             .first;
    if (released) input.instance.reset();
  }
  return it->second;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
