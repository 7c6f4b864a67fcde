// Self-healing serving: transient failures retry with interruptible
// backoff, permanent failures fail fast, the per-engine circuit breaker
// walks closed -> open -> half-open -> closed, and a coalesced batch
// isolates one member's failure from its siblings.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/fault.h"
#include "data/soccer.h"
#include "repair/faulty.h"
#include "repair/soccer_algorithm1.h"
#include "serving/service.h"
#include "tests/serving/algorithm_fixtures.h"

namespace trex::serving {
namespace {

using trex::repair::FaultyAlgorithm;
using trex::repair::FaultyOptions;
using trex::testing::GatedAlgorithm;

std::shared_ptr<const Table> SoccerTable() {
  return std::make_shared<const Table>(data::SoccerDirtyTable());
}

ExplainRequest ConstraintRequest() {
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kConstraints;
  return request;
}

/// A retry policy that keeps tests fast: immediate-ish backoff unless a
/// test overrides it.
RetryPolicy FastRetry(std::size_t max_attempts = 3) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.initial_backoff = std::chrono::milliseconds(1);
  retry.max_backoff = std::chrono::milliseconds(2);
  return retry;
}

TEST(RetryTest, TransientFailureRetriesToSuccess) {
  // The first repair call (the engine's reference run) fails
  // `kUnavailable`; the retry re-runs the batch and succeeds.
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-transient-once", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 1});
  ServiceOptions options;
  options.retry = FastRetry();
  ExplainService service(options);

  auto result = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->explanation.has_value());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(faulty->injected_failures(), 1u);
}

TEST(RetryTest, RetriedResultsBitIdenticalToFaultFreeRun) {
  // Baseline: the same backend with no fault schedule.
  auto clean = std::make_shared<FaultyAlgorithm>(
      "retry-identity", repair::MakeAlgorithm1(), FaultyOptions{});
  auto clean_result =
      ExplainService().ExplainSync(clean, data::SoccerConstraints(),
                                   SoccerTable(), ConstraintRequest());
  ASSERT_TRUE(clean_result.ok());

  auto faulty = std::make_shared<FaultyAlgorithm>(
      "retry-identity", repair::MakeAlgorithm1(),
      FaultyOptions{.skip_first = 1, .fail_first = 2});
  ServiceOptions options;
  options.retry = FastRetry(4);
  ExplainService service(options);
  auto result = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_TRUE(result.ok()) << result.status();

  // Bit-identical ranking after fault-then-recover: same labels, same
  // Shapley doubles, bit for bit.
  ASSERT_TRUE(result->explanation.has_value());
  const auto& faulted = result->explanation->ranked;
  const auto& baseline = clean_result->explanation->ranked;
  ASSERT_EQ(faulted.size(), baseline.size());
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(faulted[i].label, baseline[i].label);
    EXPECT_EQ(faulted[i].shapley, baseline[i].shapley);
  }
}

TEST(RetryTest, ExhaustedRetriesFailTransient) {
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-always", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 100});
  ServiceOptions options;
  options.retry = FastRetry(2);
  ExplainService service(options);

  auto result = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.failed_transient, 1u);
  EXPECT_EQ(stats.failed_permanent, 0u);
  EXPECT_EQ(stats.retries, 1u);  // 2 attempts = 1 retry
  ASSERT_EQ(stats.failed_by_code.count(StatusCode::kUnavailable), 1u);
  EXPECT_EQ(stats.failed_by_code.at(StatusCode::kUnavailable), 1u);
}

TEST(RetryTest, PermanentFailureIsNeverRetried) {
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-permanent", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 1, .code = StatusCode::kInternal});
  ServiceOptions options;
  options.retry = FastRetry(5);
  ExplainService service(options);

  auto result = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.failed_transient, 0u);
  EXPECT_EQ(stats.failed_permanent, 1u);
  EXPECT_EQ(stats.failed_by_code.at(StatusCode::kInternal), 1u);
  EXPECT_EQ(faulty->calls(), 1u);
}

TEST(RetryTest, DeadlineCutsAPendingBackoffImmediately) {
  // Satellite pin: the retry sleep must be interruptible. A 30-second
  // backoff is scheduled after the first transient failure; the job's
  // 50ms deadline must cut the park at once, not after the backoff.
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-slow-backoff", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 100});
  ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::seconds(30);
  options.retry.max_backoff = std::chrono::seconds(30);
  options.retry.jitter = 0.0;
  ExplainService service(options);

  RequestOptions request_options;
  request_options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  const auto start = std::chrono::steady_clock::now();
  auto result =
      service.ExplainSync(faulty, data::SoccerConstraints(), SoccerTable(),
                          ConstraintRequest(), request_options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Resolution well under the 30s backoff proves the park was cut.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.expired, 1u);
}

TEST(BreakerTest, RepeatedTransientFailuresOpenTheBreaker) {
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-breaker-open", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 1000});
  ServiceOptions options;
  options.retry = FastRetry(2);
  options.router.breaker.window = 4;
  options.router.breaker.min_samples = 2;
  options.router.breaker.failure_rate_threshold = 0.5;
  options.router.breaker.cooldown = std::chrono::minutes(10);
  ExplainService service(options);
  const EngineKey key = EngineRouter::KeyOf(*faulty, data::SoccerConstraints(),
                                            *SoccerTable());

  // Both attempts of the first job report transient outcomes: with
  // min_samples=2 and a 50% threshold the breaker trips open.
  auto first = service.ExplainSync(faulty, data::SoccerConstraints(),
                                   SoccerTable(), ConstraintRequest());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(service.router().breaker_state(key),
            EngineRouter::BreakerState::kOpen);

  // A second submission fast-fails at admission: no queueing, no engine
  // call, same `kUnavailable` classification.
  const std::size_t calls_before = faulty->calls();
  auto second = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(faulty->calls(), calls_before);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.failed_transient, 2u);
  EXPECT_GE(stats.router.breaker_open, 1u);
  EXPECT_GE(stats.router.breaker_rejected, 1u);
}

TEST(BreakerTest, HalfOpenProbeClosesTheBreakerOnSuccess) {
  // Fails exactly twice (tripping the tight breaker), then recovers.
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-breaker-probe", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 2});
  ServiceOptions options;
  options.retry = FastRetry(2);
  options.router.breaker.window = 4;
  options.router.breaker.min_samples = 2;
  options.router.breaker.failure_rate_threshold = 0.5;
  options.router.breaker.cooldown = std::chrono::milliseconds(30);
  ExplainService service(options);
  const EngineKey key = EngineRouter::KeyOf(*faulty, data::SoccerConstraints(),
                                            *SoccerTable());

  ASSERT_FALSE(service
                   .ExplainSync(faulty, data::SoccerConstraints(),
                                SoccerTable(), ConstraintRequest())
                   .ok());
  ASSERT_EQ(service.router().breaker_state(key),
            EngineRouter::BreakerState::kOpen);

  // The cooldown is a real-time contract; the next call probes
  // half-open rather than racing this timer.
  // trex-check-ok(sleep-discipline): waits out the breaker cooldown
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // The backend has recovered; the half-open probe succeeds and closes
  // the breaker.
  auto probed = service.ExplainSync(faulty, data::SoccerConstraints(),
                                    SoccerTable(), ConstraintRequest());
  ASSERT_TRUE(probed.ok()) << probed.status();
  EXPECT_EQ(service.router().breaker_state(key),
            EngineRouter::BreakerState::kClosed);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.router.breaker_half_open_probes, 1u);
  EXPECT_EQ(stats.completed, 1u);

  // Closed for real: another request flows normally.
  EXPECT_TRUE(service
                  .ExplainSync(faulty, data::SoccerConstraints(),
                               SoccerTable(), ConstraintRequest())
                  .ok());
}

TEST(BreakerTest, HalfOpenProbeFailureReopensTheBreaker) {
  auto faulty = std::make_shared<FaultyAlgorithm>(
      "faulty-breaker-reopen", repair::MakeAlgorithm1(),
      FaultyOptions{.fail_first = 1000});
  ServiceOptions options;
  options.retry = FastRetry(2);
  options.router.breaker.window = 4;
  options.router.breaker.min_samples = 2;
  options.router.breaker.failure_rate_threshold = 0.5;
  options.router.breaker.cooldown = std::chrono::milliseconds(30);
  ExplainService service(options);
  const EngineKey key = EngineRouter::KeyOf(*faulty, data::SoccerConstraints(),
                                            *SoccerTable());

  ASSERT_FALSE(service
                   .ExplainSync(faulty, data::SoccerConstraints(),
                                SoccerTable(), ConstraintRequest())
                   .ok());
  ASSERT_EQ(service.router().breaker_state(key),
            EngineRouter::BreakerState::kOpen);

  // The next call is the half-open probe.
  // trex-check-ok(sleep-discipline): waits out the breaker cooldown
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // The probe fails transient: straight back to open.
  ASSERT_FALSE(service
                   .ExplainSync(faulty, data::SoccerConstraints(),
                                SoccerTable(), ConstraintRequest())
                   .ok());
  EXPECT_EQ(service.router().breaker_state(key),
            EngineRouter::BreakerState::kOpen);
  EXPECT_GE(service.stats().router.breaker_open, 2u);
}

TEST(BatchIsolationTest, OneMemberFailureLeavesSiblingsIntact) {
  // Coalesce three jobs into one batch; the middle member's first
  // perturbed-table repair is faulted with a *permanent* error. Only
  // that ticket fails; its siblings resolve OK with values identical to
  // a fault-free run.
  auto gated = std::make_shared<GatedAlgorithm>(repair::MakeAlgorithm1());
  ServiceOptions options;
  options.num_workers = 1;
  options.max_coalesced_requests = 8;
  ExplainService service(options);

  const auto table = SoccerTable();

  // Baseline values for the sibling request, fault-free.
  auto baseline_alg = std::make_shared<GatedAlgorithm>(
      repair::MakeAlgorithm1());
  baseline_alg->Release();
  auto baseline = ExplainService().ExplainSync(
      baseline_alg, data::SoccerConstraints(), table, ConstraintRequest());
  ASSERT_TRUE(baseline.ok());

  // Pin the single worker on job A (its reference repair blocks on the
  // gate), then queue B, C, D on the same engine so they coalesce.
  Ticket a = service.Submit(gated, data::SoccerConstraints(), table,
                            ConstraintRequest());
  gated->WaitUntilStarted();

  Ticket b = service.Submit(gated, data::SoccerConstraints(), table,
                            ConstraintRequest());
  ExplainRequest cells_request;
  cells_request.target = data::SoccerTargetCell();
  cells_request.kind = ExplainKind::kCells;
  cells_request.cells.policy = AbsentCellPolicy::kNull;
  cells_request.cells.method = CellMethod::kSampling;
  cells_request.cells.num_samples = 8;
  Ticket c = service.Submit(gated, data::SoccerConstraints(), table,
                            cells_request);
  Ticket d = service.Submit(gated, data::SoccerConstraints(), table,
                            ConstraintRequest());
  ASSERT_EQ(service.pending(), 3u);

  // Only member C samples perturbed tables, so the table-miss site hits
  // exactly its first evaluation — with a permanent code, so the
  // failure sticks instead of healing via retry.
  fault::ScopedFaultPlan plan(
      {.seed = 3,
       .sites = {{.site = "repair.eval_table_miss",
                  .kind = fault::FaultKind::kTransient,
                  .fail_first = 1,
                  .code = StatusCode::kInternal}}});

  gated->Release();
  auto result_a = a.Wait();
  auto result_b = b.Wait();
  auto result_c = c.Wait();
  auto result_d = d.Wait();

  ASSERT_TRUE(result_a.ok()) << result_a.status();
  ASSERT_TRUE(result_b.ok()) << result_b.status();
  ASSERT_FALSE(result_c.ok());
  EXPECT_EQ(result_c.status().code(), StatusCode::kInternal);
  ASSERT_TRUE(result_d.ok()) << result_d.status();

  // Siblings carry correct values: identical to the fault-free run.
  for (const auto* sibling : {&result_b, &result_d}) {
    ASSERT_TRUE((*sibling)->explanation.has_value());
    const auto& ranked = (*sibling)->explanation->ranked;
    const auto& expected = baseline->explanation->ranked;
    ASSERT_EQ(ranked.size(), expected.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(ranked[i].label, expected[i].label);
      EXPECT_EQ(ranked[i].shapley, expected[i].shapley);
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_jobs, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.failed_permanent, 1u);
}

}  // namespace
}  // namespace trex::serving
