// Async serving walkthrough: submit, prioritize, cancel, await.
//
// The paper's system is interactive — a user fires an explanation
// query, keeps browsing the repair diff, and may abandon the query
// before it finishes. `serving::ExplainService` is that flow as a
// library: requests are admitted immediately, run on worker threads
// (one engine per (algorithm, constraints, table) instance, many
// tables per service), and every ticket can be awaited or cancelled.
//
// Build & run:   ./build/example_async_service

#include <chrono>
#include <cstdio>
#include <memory>

#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "serving/service.h"

int main() {
  using namespace trex;  // NOLINT — example brevity

  // One service for the whole process: 2 workers, up to 4 resident
  // engines (LRU-evicted beyond that).
  serving::ServiceOptions options;
  options.num_workers = 2;
  options.router.max_engines = 4;
  serving::ExplainService service(options);

  const auto algorithm = repair::MakeAlgorithm1();
  const dc::DcSet dcs = data::SoccerConstraints();
  // Tables are shared into the service; reuse one handle per table.
  const auto table = std::make_shared<const Table>(data::SoccerDirtyTable());

  // 1. Submit: an urgent constraint ranking for t5[Country]...
  ExplainRequest constraints_query;
  constraints_query.target = data::SoccerTargetCell();
  constraints_query.kind = ExplainKind::kConstraints;
  serving::RequestOptions urgent;
  urgent.priority = 10;
  urgent.deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
  serving::Ticket ranking = service.Submit(algorithm, dcs, table,
                                           constraints_query, urgent);

  // ...and a slow cell-level sweep at default priority that we will
  // abandon (say the user navigated away).
  ExplainRequest cells_query;
  cells_query.target = data::SoccerTargetCell();
  cells_query.kind = ExplainKind::kCells;
  cells_query.cells.num_samples = 5000;
  serving::Ticket sweep = service.Submit(algorithm, dcs, table, cells_query);

  // 2. Cancel the sweep: queued work never runs, in-flight work stops
  //    at the next black-box evaluation. Which of the two happens here
  //    depends on whether a worker picked the sweep up first, so the
  //    message names the status code only.
  sweep.Cancel();

  // 3. Await the urgent ticket.
  auto ranking_result = ranking.Wait();
  if (!ranking_result.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 ranking_result.status().ToString().c_str());
    return 1;
  }
  std::printf("constraints ranked for %s:\n",
              ranking_result->explanation->target_label.c_str());
  for (const auto& score : ranking_result->explanation->TopK(3)) {
    std::printf("  %-4s %+.4f\n", score.label.c_str(), score.shapley);
  }

  auto sweep_result = sweep.Wait();
  std::printf("abandoned sweep resolved as: %s\n",
              StatusCodeToString(sweep_result.status().code()));

  const serving::ServiceStats stats = service.stats();
  std::printf(
      "service lifetime: %zu submitted, %zu completed, %zu cancelled; "
      "%zu engine(s) built\n",
      stats.submitted, stats.completed, stats.cancelled,
      stats.router.misses);
  return 0;
}
