// ExplainService: priority ordering, cooperative cancellation (queued
// and mid-sweep), deadlines, completion callbacks, multi-table routing,
// and bit-identity of the service path vs. synchronous Engine::Explain.

#include "serving/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "tests/serving/algorithm_fixtures.h"

namespace trex::serving {
namespace {

using trex::testing::GatedAlgorithm;

std::shared_ptr<const Table> SoccerTable() {
  return std::make_shared<const Table>(data::SoccerDirtyTable());
}

std::shared_ptr<const Table> VariantTable() {
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(3, "City"), Value("Madird"));
  return std::make_shared<const Table>(dirty);
}

ExplainRequest ConstraintRequest(CellRef target = data::SoccerTargetCell()) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  return request;
}

ExplainRequest SampledCellsRequest(std::size_t num_samples,
                                   std::uint64_t seed = 17) {
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = num_samples;
  request.cells.seed = seed;
  return request;
}

using trex::testing::CancelAfterAlgorithm;

TEST(ExplainServiceTest, SubmitResolvesWithResult) {
  ExplainService service;
  Ticket ticket = service.Submit(repair::MakeAlgorithm1(),
                                 data::SoccerConstraints(), SoccerTable(),
                                 ConstraintRequest());
  EXPECT_TRUE(ticket.valid());
  auto result = ticket.Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->explanation.has_value());
  EXPECT_FALSE(result->explanation->ranked.empty());
  // Wait() is repeatable.
  EXPECT_TRUE(ticket.Wait().ok());
  EXPECT_TRUE(ticket.done());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ExplainServiceTest, HigherPriorityRunsFirstFifoWithin) {
  auto gated = std::make_shared<GatedAlgorithm>(repair::MakeAlgorithm1());
  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&, tag](const Result<ExplainResult>&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };

  {
    ServiceOptions options;
    options.num_workers = 1;
    ExplainService service(options);
    const auto table = SoccerTable();
    const dc::DcSet dcs = data::SoccerConstraints();

    // Pin the worker on the blocker, then queue in scrambled priority
    // order: low(1), high(9), mid(5), and a second high(9) for the FIFO
    // tie-break.
    RequestOptions blocker_options;
    blocker_options.on_complete = record(0);
    Ticket blocker = service.Submit(gated, dcs, table, ConstraintRequest(),
                                    blocker_options);
    gated->WaitUntilStarted();

    RequestOptions low;
    low.priority = 1;
    low.on_complete = record(1);
    RequestOptions high_a;
    high_a.priority = 9;
    high_a.on_complete = record(2);
    RequestOptions mid;
    mid.priority = 5;
    mid.on_complete = record(3);
    RequestOptions high_b;
    high_b.priority = 9;
    high_b.on_complete = record(4);
    Ticket t_low = service.Submit(gated, dcs, table, ConstraintRequest(), low);
    Ticket t_high_a =
        service.Submit(gated, dcs, table, ConstraintRequest(), high_a);
    Ticket t_mid = service.Submit(gated, dcs, table, ConstraintRequest(), mid);
    Ticket t_high_b =
        service.Submit(gated, dcs, table, ConstraintRequest(), high_b);
    EXPECT_EQ(service.pending(), 4u);

    gated->Release();
    ASSERT_TRUE(blocker.Wait().ok());
    ASSERT_TRUE(t_low.Wait().ok());
    ASSERT_TRUE(t_high_a.Wait().ok());
    ASSERT_TRUE(t_mid.Wait().ok());
    ASSERT_TRUE(t_high_b.Wait().ok());
    // Service destruction joins the worker, so every on_complete has
    // fired once the scope closes (Wait() alone does not order the
    // callback, which runs just after the future resolves).
  }

  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 3, 1}));
}

TEST(ExplainServiceTest, QueuedJobCancelsWithoutRunning) {
  auto gated = std::make_shared<GatedAlgorithm>(repair::MakeAlgorithm1());
  ServiceOptions options;
  options.num_workers = 1;
  ExplainService service(options);

  Ticket blocker = service.Submit(gated, data::SoccerConstraints(),
                                  SoccerTable(), ConstraintRequest());
  gated->WaitUntilStarted();

  // The queued job targets a *different* table; cancelling it before
  // release means its engine is never even built.
  Ticket queued = service.Submit(repair::MakeAlgorithm1(),
                                 data::SoccerConstraints(), VariantTable(),
                                 ConstraintRequest());
  queued.Cancel();
  gated->Release();

  auto result = queued.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(blocker.Wait().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // Only the blocker's engine exists.
  EXPECT_EQ(stats.router.misses, 1u);
}

TEST(ExplainServiceTest, ExpiredDeadlineCancelsAtDequeue) {
  ExplainService service;
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  Ticket ticket =
      service.Submit(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                     SoccerTable(), ConstraintRequest(), options);
  auto result = ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.router.misses, 0u);  // never reached an engine
}

TEST(ExplainServiceTest, MidSweepCancellationStopsEarly) {
  // Column-sample replacement draws fresh values per sweep, so working
  // tables rarely repeat and nearly every evaluation is a real repair
  // run — the call counter tracks sweep progress directly.
  ExplainRequest heavy;
  heavy.target = data::SoccerTargetCell();
  heavy.kind = ExplainKind::kCells;
  heavy.cells.policy = AbsentCellPolicy::kSampleFromColumn;
  heavy.cells.method = CellMethod::kSampling;
  heavy.cells.num_samples = 160;

  // Baseline: the uncancelled request's total algorithm cost.
  std::size_t uncancelled_calls = 0;
  {
    Engine engine(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                  data::SoccerDirtyTable());
    auto result = engine.Explain(heavy);
    ASSERT_TRUE(result.ok()) << result.status();
    uncancelled_calls = engine.num_algorithm_calls();
  }
  ASSERT_GT(uncancelled_calls, 100u);

  // Cancelled run: the algorithm flips the token after 25 repair calls,
  // which the sweep loop observes at the next sweep boundary.
  auto cancelling = std::make_shared<CancelAfterAlgorithm>(
      repair::MakeAlgorithm1(), /*cancel_after=*/25);
  ExplainService service;
  RequestOptions options;
  options.cancel = cancelling->token();
  Ticket ticket = service.Submit(cancelling, data::SoccerConstraints(),
                                 SoccerTable(), heavy, options);
  auto result = ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The in-flight sweep stopped early: far fewer repair runs than the
  // full request costs.
  EXPECT_LT(cancelling->calls(), uncancelled_calls / 2);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ExplainServiceTest, ServicePathBitIdenticalToSynchronousExplain) {
  // Synchronous baseline on a private engine.
  Engine engine(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                data::SoccerDirtyTable());
  auto sync_cells = engine.Explain(SampledCellsRequest(96, /*seed=*/23));
  ASSERT_TRUE(sync_cells.ok()) << sync_cells.status();
  ExplainRequest sampled_constraints = ConstraintRequest();
  sampled_constraints.constraints.max_exact_players = 0;
  sampled_constraints.constraints.num_samples = 64;
  sampled_constraints.constraints.seed = 41;
  auto sync_constraints = engine.Explain(sampled_constraints);
  ASSERT_TRUE(sync_constraints.ok()) << sync_constraints.status();

  // Same requests through the service (fresh engine in the router).
  ExplainService service;
  auto svc_cells =
      service.ExplainSync(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                          SoccerTable(), SampledCellsRequest(96, 23));
  ASSERT_TRUE(svc_cells.ok()) << svc_cells.status();
  auto svc_constraints =
      service.ExplainSync(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                          SoccerTable(), sampled_constraints);
  ASSERT_TRUE(svc_constraints.ok()) << svc_constraints.status();

  for (auto [sync_result, svc_result] :
       {std::pair{&*sync_cells, &*svc_cells},
        std::pair{&*sync_constraints, &*svc_constraints}}) {
    const Explanation& a = *sync_result->explanation;
    const Explanation& b = *svc_result->explanation;
    ASSERT_EQ(a.ranked.size(), b.ranked.size());
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
      EXPECT_EQ(a.ranked[i].label, b.ranked[i].label);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.ranked[i].shapley, b.ranked[i].shapley);
      EXPECT_EQ(a.ranked[i].std_error, b.ranked[i].std_error);
    }
  }
}

TEST(ExplainServiceTest, ConcurrentMultiTableRequestsAllComplete) {
  ServiceOptions options;
  options.num_workers = 4;
  // Pin per-job routing: with coalescing on, how many same-table jobs
  // share one engine acquisition depends on dequeue timing, and this
  // test asserts exact router hit/miss counts.
  options.max_coalesced_requests = 1;
  ExplainService service(options);
  const auto table_a = SoccerTable();
  const auto table_b = VariantTable();

  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.Submit(repair::MakeAlgorithm1(),
                                     data::SoccerConstraints(), table_a,
                                     ConstraintRequest()));
    tickets.push_back(service.Submit(repair::MakeAlgorithm1(),
                                     data::SoccerConstraints(), table_b,
                                     ConstraintRequest()));
  }
  for (Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 8u);
  // Two engines total, one per table, however many requests.
  EXPECT_EQ(stats.router.misses, 2u);
  EXPECT_EQ(stats.router.hits, 6u);
}

TEST(ExplainServiceTest, DestructionResolvesOutstandingTickets) {
  auto gated = std::make_shared<GatedAlgorithm>(repair::MakeAlgorithm1());
  Ticket blocker;
  Ticket queued;
  std::thread releaser;
  {
    ServiceOptions options;
    options.num_workers = 1;
    ExplainService service(options);
    blocker = service.Submit(gated, data::SoccerConstraints(), SoccerTable(),
                             ConstraintRequest());
    gated->WaitUntilStarted();
    queued = service.Submit(repair::MakeAlgorithm1(), data::SoccerConstraints(),
                            VariantTable(), ConstraintRequest());
    // The worker is pinned inside the gated repair, so the destructor
    // deterministically drains `queued` (resolving it cancelled) before
    // the release lets the worker finish and join.
    releaser = std::thread([&] {
      // Only liveness depends on the duration, never correctness.
      // trex-check-ok(sleep-discipline): releases after destructor entry
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gated->Release();
    });
  }
  releaser.join();
  EXPECT_TRUE(blocker.done());
  auto result = queued.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace trex::serving
