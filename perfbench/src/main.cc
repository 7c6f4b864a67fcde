// trex_perfbench: time-to-explanation through `ExplainService`, end to
// end and per layer.
//
//   trex_perfbench --workload cells_cold|serving_warm|constraints_large
//                  --seed N --seconds S --trace 0|1
//
// `--trace 0` measures the end-to-end metrics. `--trace 1` runs the same
// workload twice, untraced and then traced (the service calls the backend
// through a `TimingAlgorithm`), and reports the per-layer metrics, each
// measured from outside by timing calls into the layer's public
// functions. Either way, every response is checked against a replay on a
// fresh engine, and the last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "data/generator.h"
#include "dc/row_index.h"
#include "repair/soccer_algorithm1.h"
#include "runs.h"
#include "stats.h"
#include "timing_algorithm.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1.0;
}

/// Metrics in print order, each with its unit and an optional note.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                              note, /*in_result=*/true});
  }

  /// A figure printed for reading but left out of the JSON result, which
  /// holds exactly the metrics BENCHMARK.json lists.
  void AddInfo(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                              note, /*in_result=*/false});
  }

  void Print(bool correct, std::size_t attempted, std::size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* separator = "";
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  separator, m.name.c_str(), m.value, m.unit.c_str());
      separator = ", ";
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  std::vector<Metric> metrics_;
};

/// Requests checked and failed by the output checks.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Checks every response of `run` against its job's replay on a fresh
/// engine: resolved OK, efficient, and bit-identical.
void CheckRun(Run* run, Verdict* verdict) {
  for (const std::deque<Outcome>* outcomes : {&run->window, &run->extra}) {
    for (const Outcome& outcome : *outcomes) {
      const Replay& replay = EnsureReplay(run, outcome.job);
      ++verdict->attempted;
      if (!outcome.ok || !replay.ok || outcome.digest != replay.digest) {
        ++verdict->failed;
      }
    }
  }
}

std::vector<double> Latencies(const Run& run) {
  std::vector<double> latency;
  for (const Outcome& outcome : run.window) {
    latency.push_back(outcome.LatencyMs());
  }
  return latency;
}

std::string PercentileNote(int p, std::size_t n) {
  return "p" + std::to_string(p) + " of " + std::to_string(n) + " samples";
}

void EndToEnd(const Run& run, const Verdict& verdict, Report* report) {
  const std::vector<double> latency = Latencies(run);
  const int tail = run.workload.open_loop ? 99 : TailPercentile(latency.size());
  const double completed = static_cast<double>(run.window.size());
  // No median among the metrics: a core of a shared host can run ~1.6x
  // slower for seconds at a time, and the median of a run sits where its
  // fast and slow requests meet, so it jumps with the share of the run the
  // host spent fast. The tail stays inside the slow mode; the note keeps
  // the median and the upper quartile for reading.
  report->Add("latency_tail_ms", Percentile(latency, tail), "ms",
              PercentileNote(tail, latency.size()) + "; p50 " +
                  std::to_string(Percentile(latency, 50)) + " ms, p75 " +
                  std::to_string(Percentile(latency, 75)) + " ms");
  // Printed, not gated: on a closed loop it is 1 / mean latency, and the
  // mean follows the share of the run the host spent fast (on a shared
  // 4-vCPU virtual machine its spread over 10 seeds reached 0.24 on
  // cells_cold).
  report->AddInfo("throughput_rps", completed / run.window_s, "1/s");
  // A closed loop cannot build a backlog; its capacity is throughput_rps.
  if (run.workload.open_loop) {
    report->AddInfo("sustained_rps", run.sustained_rps, "1/s",
                "ladder estimate: p99 and lag p99 <= 100 ms, no backlog");
  }
  report->Add("repair_calls_per_explanation",
              static_cast<double>(run.charged_calls) / completed, "count");
  report->Add("memo_mb", Percentile(run.memo_mb, 50), "MB",
              "per resident engine");
  report->Add("peak_rss_mb", run.peak_rss_mb, "MB");
  report->Add("ok_ratio",
              static_cast<double>(verdict.attempted - verdict.failed) /
                  static_cast<double>(std::max<std::size_t>(1,
                                                            verdict.attempted)),
              "ratio", "1 - failed_ratio");
  report->Add("setup_s", TrimmedMean(run.setup_s), "s",
              "trimmed mean of " + std::to_string(run.setup_s.size()));
}

/// Median of `repeats` timings of `fn`, in microseconds.
template <typename Fn>
double MedianUs(int repeats, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    us.push_back(UsSince(start));
  }
  return Percentile(us, 50);
}

/// Core-layer sums over direct `Engine::Explain` calls.
struct CoreSample {
  std::vector<double> explain_us;
  double self_us = 0.0;
  double total_us = 0.0;
  std::size_t calls = 0;
  std::size_t hits = 0;
};

/// The traced run's per-layer metrics. `untraced` is the same workload
/// run without the timing backend, for the trace overhead. Sends probe
/// requests through `traced`'s service, recorded in its `extra`; a probe
/// that fails counts in `verdict`.
void Layers(const Run& untraced, Run& traced, const TimingAlgorithm& timing,
            std::uint64_t seed, Report* report, Verdict* verdict) {
  Client& client = *traced.client;
  const trex::serving::ServiceStats& before = traced.before;
  const trex::serving::ServiceStats& after = traced.after;
  const std::vector<TimingAlgorithm::Call> calls = timing.calls();
  // The representative input: the last measured request's.
  const Job& sample = traced.jobs[traced.window.back().job];
  const Instance& instance = *sample.instance;

  // serving: idle-service latency vs a direct Explain on the same warm
  // engine, taken from the router. Open loop: every pool shape; closed
  // loops: the last request again.
  std::vector<std::size_t> probe_jobs;
  if (traced.workload.open_loop) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < traced.jobs.size(); ++j) {
        probe_jobs.push_back(j);
      }
    }
  } else {
    probe_jobs.assign(10, traced.window.back().job);
  }
  std::vector<double> idle_us;
  CoreSample warm_core;
  for (std::size_t j : probe_jobs) {
    const Job& job = traced.jobs[j];
    traced.extra.emplace_back();
    Outcome& outcome = traced.extra.back();
    client.Send(job, j, Clock::now(), &outcome);
    DrainOrDie(client);
    idle_us.push_back(UsBetween(outcome.sent, outcome.done));

    auto entry = client.service().router().Acquire(
        client.backend(), job.instance->dcs, job.instance->dirty);
    trex::MutexLock lock(entry->mu);
    const std::size_t calls_before = entry->engine.num_algorithm_calls();
    const std::size_t hits_before = entry->engine.num_cache_hits();
    const std::size_t timed_before = timing.calls().size();
    const Clock::time_point start = Clock::now();
    trex::Result<trex::ExplainResult> direct = entry->engine.Explain(job.request);
    const double us = UsSince(start);
    if (!direct.ok() || Digest(*direct) != outcome.digest) outcome.ok = false;
    const std::vector<TimingAlgorithm::Call> timed = timing.calls();
    double backend_us = 0.0;
    for (std::size_t c = timed_before; c < timed.size(); ++c) {
      backend_us += timed[c].us;
    }
    warm_core.explain_us.push_back(us);
    warm_core.total_us += us;
    warm_core.self_us += us - backend_us;
    warm_core.calls += entry->engine.num_algorithm_calls() - calls_before;
    warm_core.hits += entry->engine.num_cache_hits() - hits_before;
  }
  std::vector<double> submit;
  std::vector<double> depth;
  std::vector<double> lag;
  for (const Outcome& o : traced.window) {
    submit.push_back(o.submit_us);
    depth.push_back(o.depth);
    lag.push_back(o.LagMs());
  }
  const double idle_p50 = Percentile(idle_us, 50);
  const double direct_p50 = Percentile(warm_core.explain_us, 50);
  report->Add("serving.submit_us_p50", Percentile(submit, 50), "us");
  report->Add("serving.overhead_us_p50", idle_p50 - direct_p50, "us",
              "idle service " + std::to_string(idle_p50) +
                  " us minus direct Engine::Explain " +
                  std::to_string(direct_p50) + " us");
  const double arrivals_per_s =
      static_cast<double>(traced.window.size()) / traced.window_s;
  report->Add("serving.queue_depth_mean", Mean(depth), "jobs",
              "pending() seen at each send");
  report->Add("serving.queue_wait_ms_mean",
              LittleWaitMs(Mean(depth), arrivals_per_s), "ms",
              "Little's law: depth / arrival rate");
  const double completed =
      static_cast<double>(after.completed - before.completed);
  report->Add("serving.coalesced_share",
              static_cast<double>(after.coalesced_jobs - before.coalesced_jobs) /
                  std::max(1.0, completed),
              "ratio");
  const double router_hits =
      static_cast<double>(after.router.hits - before.router.hits);
  const double router_misses =
      static_cast<double>(after.router.misses - before.router.misses);
  report->Add("serving.router_hit_ratio",
              router_hits / std::max(1.0, router_hits + router_misses),
              "ratio");
  report->Add("serving.shed", static_cast<double>(after.shed - before.shed),
              "count");
  report->Add("serving.retries",
              static_cast<double>(after.retries - before.retries), "count");
  report->Add("serving.generator_lag_ms_p99", Percentile(lag, 99), "ms");

  // table: the costs `Submit` and the router pay per request.
  const trex::Table copy = *instance.dirty;
  report->Add("table.fingerprint_us",
              MedianUs(21, [&] { (void)instance.dirty->Fingerprint(); }), "us");
  bool equal = true;
  report->Add("table.equals_us",
              MedianUs(21, [&] { equal = equal && (*instance.dirty == copy); }),
              "us");

  // core: direct Explain minus backend time. Cold workloads: the fresh
  // replays of the window's requests; the warm workload: the direct
  // calls on its warm engines above, where every evaluation hits.
  CoreSample core;
  if (traced.workload.open_loop) {
    core = warm_core;
  } else {
    for (const Outcome& o : traced.window) {
      const Replay& replay = traced.replays.at(o.job);
      core.explain_us.push_back(replay.explain_us);
      core.total_us += replay.explain_us;
      core.self_us += replay.explain_us - replay.backend_us;
      core.calls += replay.calls;
      core.hits += replay.hits;
    }
  }
  report->Add("core.explain_us_p50", Percentile(core.explain_us, 50), "us");
  report->Add("core.self_share", core.self_us / std::max(1.0, core.total_us),
              "ratio");
  // A memo hit's cost, from the warm direct calls on every workload.
  report->Add("core.us_per_hit",
              warm_core.self_us /
                  static_cast<double>(std::max<std::size_t>(1, warm_core.hits)),
              "us", "warm engine, direct Explain");
  report->Add("core.self_us_per_call",
              core.self_us / static_cast<double>(
                                 std::max<std::size_t>(1, core.calls + core.hits)),
              "us", "per black-box evaluation, hit or miss");
  double window_calls = 0.0;
  double window_hits = 0.0;
  double cross_hits = 0.0;
  double sweeps = 0.0;
  for (const Outcome& o : traced.window) {
    window_calls += static_cast<double>(o.calls);
    window_hits += static_cast<double>(o.hits);
    cross_hits += static_cast<double>(o.cross_hits);
    sweeps += static_cast<double>(o.sweeps);
  }
  const double requests = static_cast<double>(traced.window.size());
  report->Add("core.hit_ratio",
              window_hits / std::max(1.0, window_hits + window_calls), "ratio");
  report->Add("core.cache_hits", window_hits / requests, "count",
              "per request");
  report->Add("core.cross_request_hits", cross_hits / requests, "count",
              "per request");
  report->Add("core.sweeps", sweeps / requests, "count", "per request");
  report->Add("core.algorithm_calls", window_calls / requests, "count",
              "per request, reference repair excluded");
  // Memo bytes per resident engine over the backend calls that built it:
  // one engine per request on a closed loop, every warm engine's share of
  // the charged calls on the open loop.
  const double calls_per_engine =
      static_cast<double>(traced.charged_calls) /
      (traced.workload.open_loop
           ? static_cast<double>(traced.workload.max_engines)
           : requests);
  report->Add("core.memo_bytes_per_call",
              1e6 * Percentile(traced.memo_mb, 50) / calls_per_engine, "B");
  report->Add("core.reference_repair_ms", 1e-3 * MedianUs(3, [&] {
                trex::Engine engine(traced.backend, instance.dcs,
                                    instance.dirty);
                if (!engine.EnsureRepair().ok()) ++verdict->failed;
              }),
              "ms", "Engine::EnsureRepair on a fresh engine");

  // repair: the timing backend. Calls and busy share over the window;
  // per-call latency over every call of the traced run.
  std::vector<double> call_us;
  double window_repair_us = 0.0;
  double all_repair_us = 0.0;
  std::size_t in_window = 0;
  for (const TimingAlgorithm::Call& call : calls) {
    call_us.push_back(call.us);
    all_repair_us += call.us;
    if (call.start >= traced.window_start && call.start <= traced.window_end) {
      ++in_window;
      window_repair_us += call.us;
    }
  }
  const int tail = TailPercentile(call_us.size());
  report->Add("repair.calls", static_cast<double>(in_window), "count",
              "in the window");
  report->Add("repair.us_per_call_p50", Percentile(call_us, 50), "us",
              PercentileNote(50, call_us.size()) + ", set-up included");
  report->Add("repair.us_per_call_tail", Percentile(call_us, tail), "us",
              PercentileNote(tail, call_us.size()));
  report->Add("repair.busy_share",
              window_repair_us / (1e6 * traced.window_s), "ratio");

  // dc: the row-index build every backend call repeats today.
  const double build_us = MedianUs(11, [&] {
    for (const trex::dc::DenialConstraint& dc : instance.dcs.constraints()) {
      trex::dc::ConstraintRowIndex index(instance.dirty.get(), &dc);
      (void)index.uses_buckets();
    }
  });
  report->Add("dc.row_index_build_us", build_us, "us",
              "summed over the DcSet");
  report->Add("dc.index_build_share_est",
              all_repair_us > 0.0
                  ? build_us * static_cast<double>(calls.size()) / all_repair_us
                  : 0.0,
              "ratio", "build x calls / repair time");

  // data and the trace itself.
  report->Add("data.generate_s", 1e-6 * MedianUs(3, [&] {
                trex::data::SoccerGenOptions gen;
                gen.num_rows = instance.dirty->num_rows();
                gen.seed = seed;
                (void)trex::data::GenerateSoccer(gen);
              }),
              "s", "one table");
  const double untraced_p50 = Percentile(Latencies(untraced), 50);
  const double traced_p50 = Percentile(Latencies(traced), 50);
  report->Add("trace.overhead_pct",
              100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%",
              "latency_p50_ms " + std::to_string(traced_p50) + " traced vs " +
                  std::to_string(untraced_p50) + " untraced");
  if (!equal) ++verdict->failed;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: trex_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const std::optional<Workload> workload = WorkloadByName(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const std::shared_ptr<const trex::repair::RepairAlgorithm> backend =
      trex::repair::MakeAlgorithm1();
  Verdict verdict;
  Report report;
  if (!args.trace) {
    Run run = RunWorkload(*workload, args.seed, args.seconds, backend, backend,
                          /*ladder=*/true, /*timed_replays=*/false);
    CheckRun(&run, &verdict);
    EndToEnd(run, verdict, &report);
  } else {
    // Both halves run the same seeded inputs. Each response must match
    // its own half's replay, and the traced replays (through the timing
    // backend) must match the untraced ones: tracing changes no result.
    Run untraced = RunWorkload(*workload, args.seed, args.seconds / 2, backend,
                               backend, /*ladder=*/false,
                               /*timed_replays=*/false);
    auto timing = std::make_shared<TimingAlgorithm>(backend);
    Run traced = RunWorkload(*workload, args.seed, args.seconds / 2, backend,
                             timing, /*ladder=*/false, /*timed_replays=*/true);
    Layers(untraced, traced, *timing, args.seed, &report, &verdict);
    CheckRun(&traced, &verdict);
    CheckRun(&untraced, &verdict);
    for (const auto& [job, replay] : traced.replays) {
      auto it = untraced.replays.find(job);
      if (it != untraced.replays.end() && it->second.digest != replay.digest) {
        ++verdict.failed;
      }
    }
  }
  const bool correct = verdict.failed == 0;
  report.Print(correct, verdict.attempted, verdict.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
