// The async serving layer under load: overlap, cancellation,
// service-vs-sync bit-identity, the admit → coalesce → execute
// scheduler (queue cap + load-shedding under oversubmission, and the
// repair-call reduction from coalescing same-engine requests), and a
// synthetic mixed-table world (data/generator.h) served through one
// `ExplainService`. The scheduler and synthetic-world scenarios emit one
// JSON line each (prefixed "JSON ") so the bench trajectory is
// machine-readable.
//
// Three claims of the PR 2 serving redesign, each with a verdict:
//  1. One `ExplainService` overlaps requests across tables: the
//     wall-clock for N requests spread over several tables is below the
//     serial sum of per-table runs (per-engine work is serialized, so
//     the win comes from cross-table concurrency). The primary
//     demonstration pads each black-box repair call with a small fixed
//     latency — modelling remote / I/O-bound repair backends — so the
//     overlap is measurable regardless of host core count; on
//     multi-core hosts a pure-compute comparison is also scored.
//  2. Cooperative cancellation stops an in-flight sweep early: the
//     black-box call count of a cancelled request is a fraction of the
//     uncancelled run's.
//  3. Results through the service are bit-identical to synchronous
//     `Engine::Explain` with the same seeds — asynchrony never changes
//     values, only latency.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/engine.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/faulty.h"
#include "repair/soccer_algorithm1.h"
#include "serving/service.h"
#include "tests/serving/algorithm_fixtures.h"

namespace trex {
namespace {

using trex::testing::CancelAfterAlgorithm;
using trex::testing::GatedAlgorithm;
using trex::testing::InstrumentedAlgorithm;

/// Distinct single-error variants of the soccer table: each routes to
/// its own engine (different content fingerprint), same constraint set.
std::vector<std::shared_ptr<const Table>> VariantTables(std::size_t count) {
  std::vector<std::shared_ptr<const Table>> tables;
  const Table base = data::SoccerDirtyTable();
  for (std::size_t i = 0; i < count; ++i) {
    Table dirty = base;
    dirty.Set(CellRef{i % dirty.num_rows(), 0},
              Value("variant-" + std::to_string(i)));
    tables.push_back(std::make_shared<const Table>(dirty));
  }
  return tables;
}

ExplainRequest SampledCellsRequest(std::size_t num_samples,
                                   std::uint64_t seed) {
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kSampleFromColumn;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = num_samples;
  request.cells.seed = seed;
  return request;
}

ExplainRequest ConstraintRequest() {
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kConstraints;
  return request;
}

void Run() {
  const auto algorithm = repair::MakeAlgorithm1();
  const dc::DcSet dcs = data::SoccerConstraints();
  constexpr std::size_t kTables = 4;
  constexpr std::size_t kRequestsPerTable = 2;
  constexpr std::size_t kSamples = 256;
  const auto tables = VariantTables(kTables);

  bench::Header("mixed-table load: serial engines vs ExplainService");
  // Primary comparison: a latency-padded backend (1ms per repair call,
  // modelling remote / I/O-bound repairers), so cross-table overlap
  // shows on any host.
  const auto padded = std::make_shared<InstrumentedAlgorithm>(
      "padded", algorithm, std::chrono::microseconds(1000));
  const double serial_seconds = bench::TimeSeconds([&] {
    for (const auto& table : tables) {
      Engine engine(padded, dcs, table);
      for (std::size_t r = 0; r < kRequestsPerTable; ++r) {
        auto result = engine.Explain(ConstraintRequest());
        TREX_CHECK(result.ok()) << result.status().ToString();
      }
    }
  });

  // Service: same requests interleaved across tables, four workers.
  serving::ServiceOptions service_options;
  service_options.num_workers = 4;
  serving::ServiceStats stats;
  const double service_seconds = bench::TimeSeconds([&] {
    serving::ExplainService service(service_options);
    std::vector<serving::Ticket> tickets;
    for (std::size_t r = 0; r < kRequestsPerTable; ++r) {
      for (const auto& table : tables) {
        tickets.push_back(
            service.Submit(padded, dcs, table, ConstraintRequest()));
      }
    }
    for (serving::Ticket& ticket : tickets) {
      auto result = ticket.Wait();
      TREX_CHECK(result.ok()) << result.status().ToString();
    }
    stats = service.stats();
  });
  std::printf(
      "%zu requests over %zu tables, 1ms-latency backend\n"
      "serial: %.3fs   service(4 workers): %.3fs   speedup: %.2fx\n"
      "router: %zu engines built, %zu hits, %zu evictions\n",
      kTables * kRequestsPerTable, kTables, serial_seconds, service_seconds,
      service_seconds > 0 ? serial_seconds / service_seconds : 0.0,
      stats.router.misses, stats.router.hits, stats.router.evictions);
  bench::Verdict(service_seconds < serial_seconds,
                 "service overlaps mixed-table requests below the serial sum");
  bench::Verdict(stats.router.misses == kTables,
                 "one engine per table, reused across requests");

  // Pure-compute comparison: only meaningful with real parallel cores.
  if (std::thread::hardware_concurrency() > 1) {
    const double cpu_serial = bench::TimeSeconds([&] {
      for (const auto& table : tables) {
        Engine engine(algorithm, dcs, table);
        auto result = engine.Explain(SampledCellsRequest(kSamples, 100));
        TREX_CHECK(result.ok()) << result.status().ToString();
      }
    });
    const double cpu_service = bench::TimeSeconds([&] {
      serving::ExplainService service(service_options);
      std::vector<serving::Ticket> tickets;
      for (const auto& table : tables) {
        tickets.push_back(service.Submit(algorithm, dcs, table,
                                         SampledCellsRequest(kSamples, 100)));
      }
      for (serving::Ticket& ticket : tickets) {
        TREX_CHECK(ticket.Wait().ok());
      }
    });
    std::printf("compute-bound: serial %.3fs, service %.3fs (%.2fx)\n",
                cpu_serial, cpu_service,
                cpu_service > 0 ? cpu_serial / cpu_service : 0.0);
    bench::Verdict(cpu_service < cpu_serial,
                   "compute-bound mixed-table load also overlaps");
  } else {
    std::printf(
        "compute-bound comparison skipped: single-core host (no parallel "
        "speedup possible)\n");
  }

  bench::Header("cooperative cancellation of an in-flight sweep");
  std::size_t uncancelled_calls = 0;
  {
    Engine engine(algorithm, dcs, tables[0]);
    auto result = engine.Explain(SampledCellsRequest(kSamples, 7));
    TREX_CHECK(result.ok()) << result.status().ToString();
    uncancelled_calls = engine.num_algorithm_calls();
  }
  auto cancelling =
      std::make_shared<CancelAfterAlgorithm>(algorithm, /*cancel_after=*/40);
  std::size_t cancelled_calls = 0;
  {
    serving::ExplainService service;
    serving::RequestOptions options;
    options.cancel = cancelling->token();
    serving::Ticket ticket = service.Submit(
        cancelling, dcs, tables[0], SampledCellsRequest(kSamples, 7), options);
    auto result = ticket.Wait();
    TREX_CHECK(!result.ok());
    TREX_CHECK(result.status().IsCancelled()) << result.status().ToString();
    cancelled_calls = cancelling->calls();
  }
  std::printf("uncancelled: %zu algorithm calls\ncancelled:   %zu calls\n",
              uncancelled_calls, cancelled_calls);
  bench::Verdict(cancelled_calls * 2 < uncancelled_calls,
                 "cancellation stops the sweep well before the full budget");

  bench::Header("service path vs synchronous Explain: bit-identity");
  Engine sync_engine(algorithm, dcs, tables[1]);
  auto sync_result = sync_engine.Explain(SampledCellsRequest(kSamples, 13));
  TREX_CHECK(sync_result.ok()) << sync_result.status().ToString();
  serving::ExplainService service;
  auto service_result = service.ExplainSync(
      algorithm, dcs, tables[1], SampledCellsRequest(kSamples, 13));
  TREX_CHECK(service_result.ok()) << service_result.status().ToString();
  const Explanation& a = *sync_result->explanation;
  const Explanation& b = *service_result->explanation;
  bool identical = a.ranked.size() == b.ranked.size();
  for (std::size_t i = 0; identical && i < a.ranked.size(); ++i) {
    identical = a.ranked[i].label == b.ranked[i].label &&
                a.ranked[i].shapley == b.ranked[i].shapley &&
                a.ranked[i].std_error == b.ranked[i].std_error;
  }
  bench::Verdict(identical,
                 "service results are bit-identical to synchronous Explain");
}

/// Scheduler scenario 1 — coalescing: 8 concurrent single-target
/// requests against one (table, DcSet), interleaved with equal traffic
/// for a second stream on a router capped at one resident engine (the
/// steady state of a loaded deployment: another stream's jobs evict
/// yours between your jobs). Per-job execution rebuilds the engine —
/// reference repair plus a fresh 2^|C| memo — for every request;
/// coalescing gathers each stream back into one group: one engine
/// acquisition, one `EnsureRepair`, one `Explain` per member.
void RunCoalescingScenario() {
  bench::Header("scheduler: coalesced vs per-job execution under pressure");
  const dc::DcSet dcs = data::SoccerConstraints();
  const auto inner = repair::MakeAlgorithm1();
  const auto tables = VariantTables(2);
  constexpr std::size_t kRequests = 8;

  struct Outcome {
    std::size_t calls_a = 0;
    serving::ServiceStats stats;
  };
  auto run = [&](std::size_t max_coalesced) {
    auto count_a = std::make_shared<InstrumentedAlgorithm>("count-a", inner);
    auto count_b = std::make_shared<InstrumentedAlgorithm>("count-b", inner);
    auto gated = std::make_shared<GatedAlgorithm>(inner);
    serving::ServiceOptions options;
    options.num_workers = 1;
    options.max_coalesced_requests = max_coalesced;
    options.router.max_engines = 1;
    serving::ExplainService service(options);
    // Pin the worker so the full backlog queues before any dequeue.
    serving::Ticket blocker =
        service.Submit(gated, dcs, tables[1], ConstraintRequest());
    gated->WaitUntilStarted();
    std::vector<serving::Ticket> tickets;
    for (std::size_t i = 0; i < kRequests; ++i) {
      tickets.push_back(
          service.Submit(count_a, dcs, tables[0], ConstraintRequest()));
      tickets.push_back(
          service.Submit(count_b, dcs, tables[1], ConstraintRequest()));
    }
    gated->Release();
    TREX_CHECK(blocker.Wait().ok());
    for (serving::Ticket& ticket : tickets) {
      TREX_CHECK(ticket.Wait().ok());
    }
    return Outcome{count_a->calls(), service.stats()};
  };

  const Outcome per_job = run(1);
  const Outcome coalesced = run(kRequests);
  const double reduction =
      coalesced.calls_a > 0
          ? static_cast<double>(per_job.calls_a) /
                static_cast<double>(coalesced.calls_a)
          : 0.0;
  std::printf(
      "%zu single-target requests on one (table, DcSet), interleaved "
      "with a second stream, 1-engine router\n"
      "per-job:   %zu repair calls for the stream\n"
      "coalesced: %zu repair calls (%zu batches, %zu jobs coalesced)\n"
      "reduction: %.2fx\n",
      kRequests, per_job.calls_a, coalesced.calls_a,
      coalesced.stats.coalesced_batches, coalesced.stats.coalesced_jobs,
      reduction);
  std::printf(
      "JSON {\"bench\":\"serving\",\"scenario\":\"coalescing\","
      "\"requests\":%zu,\"per_job_calls\":%zu,\"coalesced_calls\":%zu,"
      "\"reduction\":%.2f,\"coalesced_batches\":%zu,"
      "\"coalesced_jobs\":%zu}\n",
      kRequests, per_job.calls_a, coalesced.calls_a, reduction,
      coalesced.stats.coalesced_batches, coalesced.stats.coalesced_jobs);
  bench::Verdict(coalesced.calls_a * 2 <= per_job.calls_a,
                 "coalescing cuts the stream's repair calls >= 2x vs "
                 "per-job execution");
  bench::Verdict(per_job.stats.coalesced_batches == 0,
                 "max_coalesced_requests = 1 reproduces per-job behavior");
}

/// Scheduler scenario 2 — saturation: 4x oversubmission against a
/// capped queue. Shedding must keep exactly the best of everything
/// submitted (highest priority, oldest within a priority) and resolve
/// the rest `Rejected` at admission.
void RunSaturationScenario() {
  bench::Header("scheduler: queue cap + shedding under 4x oversubmission");
  const dc::DcSet dcs = data::SoccerConstraints();
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table = std::make_shared<const Table>(data::SoccerDirtyTable());
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kSubmitted = 4 * kCap;

  auto gated = std::make_shared<GatedAlgorithm>(algorithm);
  serving::ServiceOptions options;
  options.num_workers = 1;
  options.max_queued_jobs = kCap;
  serving::ExplainService service(options);
  serving::Ticket blocker =
      service.Submit(gated, dcs, table, ConstraintRequest());
  gated->WaitUntilStarted();

  std::vector<std::pair<int, serving::Ticket>> tickets;
  const double submit_seconds = bench::TimeSeconds([&] {
    for (std::size_t i = 0; i < kSubmitted; ++i) {
      serving::RequestOptions request_options;
      request_options.priority = static_cast<int>(i % 8);
      tickets.emplace_back(
          request_options.priority,
          service.Submit(algorithm, dcs, table, ConstraintRequest(),
                         request_options));
    }
  });
  gated->Release();
  TREX_CHECK(blocker.Wait().ok());

  // Priorities cycle 0..7 over 32 submissions; the best 8 of the run
  // are the four 7s and four 6s, and shedding must keep exactly those.
  std::size_t completed = 0;
  std::size_t rejected = 0;
  bool survivors_are_best = true;
  for (auto& [priority, ticket] : tickets) {
    auto result = ticket.Wait();
    if (result.ok()) {
      ++completed;
      if (priority < 6) survivors_are_best = false;
    } else {
      TREX_CHECK(result.status().IsRejected())
          << result.status().ToString();
      ++rejected;
      if (priority >= 6) survivors_are_best = false;
    }
  }
  const serving::ServiceStats stats = service.stats();
  std::printf(
      "%zu submissions against a %zu-deep queue (worker pinned): "
      "%zu served, %zu shed (%.0f%%), high-water %zu, "
      "admission wall-clock %.1fus/job\n",
      kSubmitted, kCap, completed, rejected,
      100.0 * static_cast<double>(rejected) /
          static_cast<double>(kSubmitted),
      stats.queue_high_water,
      1e6 * submit_seconds / static_cast<double>(kSubmitted));
  std::printf(
      "JSON {\"bench\":\"serving\",\"scenario\":\"saturation\","
      "\"submitted\":%zu,\"queue_cap\":%zu,\"completed\":%zu,"
      "\"shed\":%zu,\"queue_high_water\":%zu,"
      "\"admission_us_per_job\":%.1f}\n",
      kSubmitted, kCap, completed, stats.shed, stats.queue_high_water,
      1e6 * submit_seconds / static_cast<double>(kSubmitted));
  bench::Verdict(completed == kCap && rejected == kSubmitted - kCap &&
                     stats.shed == kSubmitted - kCap,
                 "a full queue sheds exactly the oversubmission");
  bench::Verdict(survivors_are_best,
                 "shedding keeps the highest-priority jobs, rejects the "
                 "rest at admission");
  bench::Verdict(stats.queue_high_water == kCap,
                 "queue depth never exceeds the admission cap");
}

/// Scheduler scenario 3 — synthetic mixed-table world: a generated
/// multi-table world (disjoint seeds, injected ground-truth errors)
/// served through one `ExplainService`. Constraint explanations of the
/// injected error cells for every table are submitted interleaved, so
/// the router must keep one engine per table while the workers overlap
/// the streams — the serving-layer counterpart of bench_scalability's
/// cross-backend sweep.
void RunSyntheticWorldScenario() {
  bench::Header("synthetic mixed-table world through ExplainService");
  constexpr std::size_t kRowsPerTable = 160;
  constexpr std::size_t kTargetsPerTable = 3;

  data::WorldGenOptions world_options;
  world_options.table.num_rows = kRowsPerTable;
  world_options.table.seed = 61;
  world_options.num_tables = 3;
  const data::GeneratedWorld world = data::GenerateWorld(world_options);
  const dc::DcSet dcs = world.tables[0].dcs;
  const Schema schema = world.tables[0].clean.schema();
  const auto algorithm = repair::MakeAlgorithm1();

  // Dirty each table with swaps in the FD-repairable columns and keep
  // the first injected error cells as explanation targets.
  std::vector<std::shared_ptr<const Table>> tables;
  std::vector<std::vector<CellRef>> targets(world.tables.size());
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < world.tables.size(); ++i) {
    data::ErrorInjectorOptions inject;
    inject.error_rate = 0.06;
    inject.weight_swap = 1.0;
    inject.weight_typo = 0.0;
    inject.weight_missing = 0.0;
    inject.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
    inject.seed = 62 + i;
    auto injected = data::InjectErrors(world.tables[i].clean, inject);
    TREX_CHECK(!injected.injected.empty());
    for (const RepairedCell& error : injected.injected) {
      if (targets[i].size() >= kTargetsPerTable) break;
      targets[i].push_back(error.cell);
    }
    tables.push_back(std::make_shared<const Table>(std::move(injected.dirty)));
  }

  serving::ServiceOptions options;
  options.num_workers = 3;
  std::size_t explained = 0;
  std::size_t unexplained = 0;
  std::vector<std::size_t> explained_per_table(tables.size(), 0);
  serving::ServiceStats stats;
  const double wall_seconds = bench::TimeSeconds([&] {
    serving::ExplainService service(options);
    std::vector<std::pair<std::size_t, serving::Ticket>> tickets;
    // Interleave across tables: target t of every table, then t+1, ...
    for (std::size_t t = 0; t < kTargetsPerTable; ++t) {
      for (std::size_t i = 0; i < tables.size(); ++i) {
        if (t >= targets[i].size()) continue;
        ExplainRequest request;
        request.target = targets[i][t];
        request.kind = ExplainKind::kConstraints;
        tickets.emplace_back(
            i, service.Submit(algorithm, dcs, tables[i], request));
        ++submitted;
      }
    }
    for (auto& [table_index, ticket] : tickets) {
      auto result = ticket.Wait();
      if (result.ok()) {
        ++explained;
        ++explained_per_table[table_index];
      } else {
        // An injected error the algorithm did not repair back cannot be
        // explained; that is workload signal, not a serving failure.
        TREX_CHECK(!result.status().IsCancelled())
            << result.status().ToString();
        ++unexplained;
      }
    }
    stats = service.stats();
  });
  std::printf(
      "%zu-table world, %zu rows/table, %zu explanation requests "
      "interleaved\nexplained %zu, unexplainable %zu, wall %.3fs, "
      "router: %zu engines built, %zu hits, ~%zu memo bytes resident\n",
      world.tables.size(), kRowsPerTable, submitted, explained, unexplained,
      wall_seconds, stats.router.misses, stats.router.hits,
      stats.router.approx_memo_bytes);
  std::printf(
      "JSON {\"bench\":\"serving\",\"scenario\":\"synthetic_world\","
      "\"tables\":%zu,\"rows_per_table\":%zu,\"submitted\":%zu,"
      "\"explained\":%zu,\"unexplained\":%zu,\"wall_seconds\":%.3f,"
      "\"router_misses\":%zu,\"router_hits\":%zu,"
      "\"approx_memo_bytes\":%zu}\n",
      world.tables.size(), kRowsPerTable, submitted, explained, unexplained,
      wall_seconds, stats.router.misses, stats.router.hits,
      stats.router.approx_memo_bytes);
  bench::Verdict(stats.completed + stats.failed == submitted,
                 "every synthetic-world ticket resolves");
  bench::Verdict(stats.router.misses == world.tables.size(),
                 "one engine per generated table, reused across requests");
  bool every_stream = true;
  for (std::size_t count : explained_per_table) {
    if (count == 0) every_stream = false;
  }
  bench::Verdict(every_stream,
                 "the service explains injected errors in every stream");
}

/// Scheduler scenario 4 — deadline degradation: the same
/// deadline-expired sampled job submitted twice, once under the legacy
/// hard-deadline contract (resolves `Cancelled`, zero answer) and once
/// with `degrade_on_deadline` (the expiry fires the soften token, the
/// sweep finishes its current wave, and the ticket resolves OK with
/// partial confidence-bounded estimates). The JSON row records both
/// outcomes plus the partial run's sweep count and achieved CI width.
void RunDeadlineDegradationScenario() {
  bench::Header("deadline expiry: hard cancel vs confidence-bounded degrade");
  const dc::DcSet dcs = data::SoccerConstraints();
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table = std::make_shared<const Table>(data::SoccerDirtyTable());

  // A sampled request whose anytime target is unreachable: only the
  // deadline can end it before the (large) budget.
  ExplainRequest request = SampledCellsRequest(/*num_samples=*/4096,
                                               /*seed=*/17);
  AnytimeOptions anytime;
  anytime.target_ci_half_width = 1e-9;
  anytime.check_interval = 32;
  request.anytime = anytime;

  serving::RequestOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  // Legacy contract: expiry cancels; the user gets nothing.
  bool hard_cancelled = false;
  {
    serving::ExplainService service;
    auto result =
        service.Submit(algorithm, dcs, table, request, expired).Wait();
    hard_cancelled = !result.ok() && result.status().IsCancelled();
  }

  // Degraded contract: same job, same expired deadline, but the expiry
  // softens — partial estimates with honest error bars come back OK.
  bool degraded_ok = false;
  bool approximate = false;
  std::size_t sweeps = 0;
  double achieved = 0.0;
  std::size_t degraded_count = 0;
  {
    serving::ExplainService service;
    serving::RequestOptions degrade = expired;
    degrade.degrade_on_deadline = true;
    auto result =
        service.Submit(algorithm, dcs, table, request, degrade).Wait();
    degraded_ok = result.ok();
    if (result.ok()) {
      approximate = result->approximate;
      sweeps = result->sweeps;
      achieved = result->achieved_ci_half_width.value_or(0.0);
    }
    degraded_count = service.stats().degraded;
  }

  std::printf(
      "expired deadline, 4096-sweep budget\n"
      "hard deadline:     %s\n"
      "degrade_on_deadline: OK=%s approximate=%s, %zu sweeps kept, "
      "achieved CI half-width %.4f\n",
      hard_cancelled ? "Cancelled (work discarded)" : "UNEXPECTED",
      degraded_ok ? "yes" : "no", approximate ? "yes" : "no", sweeps,
      achieved);
  std::printf(
      "JSON {\"bench\":\"serving\",\"scenario\":\"deadline_degradation\","
      "\"hard_cancelled\":%s,\"degraded_ok\":%s,\"approximate\":%s,"
      "\"sweeps\":%zu,\"budget\":4096,\"achieved_half_width\":%.6f,"
      "\"degraded_count\":%zu}\n",
      hard_cancelled ? "true" : "false", degraded_ok ? "true" : "false",
      approximate ? "true" : "false", sweeps, achieved, degraded_count);
  bench::Verdict(hard_cancelled,
                 "without opt-in, an expired deadline still cancels");
  bench::Verdict(degraded_ok && approximate && sweeps > 0 && sweeps < 4096,
                 "degrade_on_deadline resolves OK with partial "
                 "confidence-bounded estimates");
  bench::Verdict(degraded_count == 1 && achieved > 0.0,
                 "the degraded completion is counted and carries an "
                 "achieved CI width");
}

/// Scheduler scenario 5 — resilience: deterministic transient faults
/// healed by bounded retries, then a full circuit-breaker cycle
/// (closed → open under repeated transient failure → half-open probe
/// after cooldown → closed on probe success). The JSON row carries the
/// new self-healing telemetry: `retries`, the transient/permanent
/// failure split, the per-StatusCode failure breakdown, and the
/// breaker counters.
void RunResilienceScenario() {
  bench::Header("self-healing: retries + circuit breaker on transient faults");
  const dc::DcSet dcs = data::SoccerConstraints();
  const auto inner = repair::MakeAlgorithm1();
  const auto table = std::make_shared<const Table>(data::SoccerDirtyTable());

  // Phase 1 — healing: the backend's first two repair calls fail
  // transient; the retry loop re-runs until the schedule recovers, so
  // every ticket still resolves OK.
  serving::ServiceStats healed;
  {
    auto flaky = std::make_shared<repair::FaultyAlgorithm>(
        "bench-flaky", inner, repair::FaultyOptions{.fail_first = 2});
    serving::ServiceOptions options;
    options.retry.max_attempts = 4;
    options.retry.initial_backoff = std::chrono::milliseconds(1);
    options.retry.max_backoff = std::chrono::milliseconds(4);
    serving::ExplainService service(options);
    for (int r = 0; r < 4; ++r) {
      auto result =
          service.Submit(flaky, dcs, table, ConstraintRequest()).Wait();
      TREX_CHECK(result.ok()) << result.status().ToString();
    }
    healed = service.stats();
  }
  std::printf(
      "healing: 4 requests, first 2 repair calls fail transient — "
      "completed %zu, failed %zu, retries %zu\n",
      healed.completed, healed.failed, healed.retries);

  // Phase 2 — breaker cycle: retry budget (2 attempts) below the fault
  // budget, so the first job exhausts its retries and the two transient
  // outcomes trip the tight breaker; a second job is rejected at
  // admission during cooldown; after cooldown a third job rides the
  // half-open probe, succeeds, and closes the breaker.
  serving::ServiceStats breaker;
  bool cycle_closed = false;
  {
    auto flaky = std::make_shared<repair::FaultyAlgorithm>(
        "bench-breaker", inner, repair::FaultyOptions{.fail_first = 2});
    serving::ServiceOptions options;
    options.retry.max_attempts = 2;
    options.retry.initial_backoff = std::chrono::milliseconds(1);
    options.retry.max_backoff = std::chrono::milliseconds(2);
    options.router.breaker.window = 4;
    options.router.breaker.min_samples = 2;
    options.router.breaker.failure_rate_threshold = 0.5;
    options.router.breaker.cooldown = std::chrono::milliseconds(50);
    serving::ExplainService service(options);
    const serving::EngineKey key =
        serving::EngineRouter::KeyOf(*flaky, dcs, *table);

    auto exhausted = service.Submit(flaky, dcs, table, ConstraintRequest())
                         .Wait();
    TREX_CHECK(!exhausted.ok() && exhausted.status().IsTransient());
    auto rejected = service.Submit(flaky, dcs, table, ConstraintRequest())
                        .Wait();
    TREX_CHECK(!rejected.ok() && rejected.status().IsTransient());
    // The breaker cooldown is a real-time contract; only
    // elapsed wall-clock moves it from open to half-open.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto probed = service.Submit(flaky, dcs, table, ConstraintRequest())
                      .Wait();
    TREX_CHECK(probed.ok()) << probed.status().ToString();
    cycle_closed = service.router().breaker_state(key) ==
                   serving::EngineRouter::BreakerState::kClosed;
    breaker = service.stats();
  }
  std::printf(
      "breaker: open %zu, half-open probes %zu, rejected-at-admission %zu, "
      "cycle re-closed %s\n",
      breaker.router.breaker_open, breaker.router.breaker_half_open_probes,
      breaker.router.breaker_rejected, cycle_closed ? "yes" : "no");

  std::string by_code = "{";
  for (const auto& [code, count] : breaker.failed_by_code) {
    if (by_code.size() > 1) by_code += ",";
    by_code += "\"" + std::string(StatusCodeToString(code)) +
               "\":" + std::to_string(count);
  }
  by_code += "}";
  std::printf(
      "JSON {\"bench\":\"serving\",\"scenario\":\"resilience\","
      "\"healed_requests\":%zu,\"healed_failed\":%zu,\"retries\":%zu,"
      "\"breaker_submitted\":%zu,\"breaker_completed\":%zu,"
      "\"failed_transient\":%zu,\"failed_permanent\":%zu,"
      "\"failed_by_code\":%s,\"breaker_open\":%zu,"
      "\"breaker_half_open_probes\":%zu,\"breaker_rejected\":%zu}\n",
      healed.completed, healed.failed, healed.retries, breaker.submitted,
      breaker.completed, breaker.failed_transient, breaker.failed_permanent,
      by_code.c_str(), breaker.router.breaker_open,
      breaker.router.breaker_half_open_probes,
      breaker.router.breaker_rejected);
  bench::Verdict(healed.completed == 4 && healed.failed == 0 &&
                     healed.retries == 2,
                 "transient faults heal invisibly: bounded retries, zero "
                 "failed tickets");
  bench::Verdict(cycle_closed && breaker.router.breaker_open >= 1 &&
                     breaker.router.breaker_half_open_probes >= 1 &&
                     breaker.router.breaker_rejected >= 1,
                 "the breaker completes a closed -> open -> half-open -> "
                 "closed cycle");
  bench::Verdict(breaker.failed ==
                     breaker.failed_transient + breaker.failed_permanent,
                 "every failure is classified transient or permanent");
}

}  // namespace
}  // namespace trex

int main() {
  trex::Run();
  trex::RunCoalescingScenario();
  trex::RunSaturationScenario();
  trex::RunSyntheticWorldScenario();
  trex::RunDeadlineDegradationScenario();
  trex::RunResilienceScenario();
  return 0;
}
