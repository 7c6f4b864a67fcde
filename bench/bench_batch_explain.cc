// Multi-target explanation: serial fresh engines vs one shared engine.
//
// The seed API re-ran the reference repair and rebuilt the memo caches
// for every explained cell. One `Engine` shares one `BlackBoxRepair`
// across all its requests, so constraint explanations of many targets
// pay the 2^|C| subset sweep once. This bench explains every repaired
// cell of a 3-error soccer table both ways and compares
// total black-box algorithm calls (the paper's §2.3 unit of cost) and
// wall-clock time, then demonstrates multi-threaded cell sampling
// returning bit-identical estimates.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "table/diff.h"

namespace trex {
namespace {

Table ThreeErrorTable() {
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(3, "City"), Value("Madird"));
  return dirty;
}

ExplainRequest ConstraintRequest(CellRef target) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  return request;
}

ExplainRequest CellsRequest(CellRef target) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kCells;
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.num_samples = 192;
  return request;
}

void Run() {
  const auto algorithm = repair::MakeAlgorithm1();
  const dc::DcSet dcs = data::SoccerConstraints();
  const Table dirty = ThreeErrorTable();

  // The targets: every cell the reference repair changes.
  Engine probe(algorithm, dcs, dirty);
  TREX_CHECK(probe.EnsureRepair().ok());
  const auto diff = DiffTables(dirty, probe.reference_clean());
  TREX_CHECK(diff.ok());
  std::vector<CellRef> targets;
  for (const RepairedCell& cell : *diff) targets.push_back(cell.cell);
  std::printf("targets: %zu repaired cells\n", targets.size());

  bench::Header(
      "constraint explanations: serial fresh engines vs one shared engine");
  std::size_t serial_calls = 0;
  const double serial_seconds = bench::TimeSeconds([&] {
    for (CellRef target : targets) {
      // The seed workflow: a fresh evaluator per query.
      Engine engine(algorithm, dcs, dirty);
      auto result = engine.Explain(ConstraintRequest(target));
      TREX_CHECK(result.ok()) << result.status().ToString();
      serial_calls += engine.num_algorithm_calls();
    }
  });

  Engine shared(algorithm, dcs, dirty);
  std::size_t reference_calls = 0;
  const double shared_seconds = bench::TimeSeconds([&] {
    TREX_CHECK(shared.EnsureRepair().ok());
    reference_calls = shared.num_algorithm_calls();
    for (CellRef target : targets) {
      auto result = shared.Explain(ConstraintRequest(target));
      TREX_CHECK(result.ok()) << result.status().ToString();
    }
  });

  std::printf(
      "serial:  %zu algorithm calls, %.3fs\n"
      "shared:  %zu algorithm calls (%zu reference repairs, %zu cache "
      "hits, %zu cross-target), %.3fs\n",
      serial_calls, serial_seconds, shared.num_algorithm_calls(),
      reference_calls, shared.num_cache_hits(),
      shared.num_cross_request_hits(), shared_seconds);
  bench::Verdict(reference_calls == 1,
                 "the shared engine runs exactly one reference repair");
  bench::Verdict(shared.num_algorithm_calls() < serial_calls,
                 "the shared engine needs fewer algorithm calls than the "
                 "serial loop");
  bench::Verdict(shared.num_cross_request_hits() > 0,
                 "later targets reuse earlier targets' evaluations");

  bench::Header("cell sampling: thread sharding is value-stable");
  std::vector<Explanation> per_config;
  std::vector<double> seconds;
  for (std::size_t num_threads :
       {std::size_t{1}, ThreadPool::DefaultThreads()}) {
    EngineOptions options;
    options.num_threads = num_threads;
    Engine engine(algorithm, dcs, dirty, options);
    Explanation ex;
    seconds.push_back(bench::TimeSeconds([&] {
      auto result = engine.Explain(CellsRequest(targets.back()));
      TREX_CHECK(result.ok()) << result.status().ToString();
      ex = std::move(*result->explanation);
    }));
    std::printf("threads=%zu: %.3fs (%s)\n", num_threads, seconds.back(),
                ex.method.c_str());
    per_config.push_back(std::move(ex));
  }
  bool identical = per_config[0].ranked.size() == per_config[1].ranked.size();
  for (std::size_t i = 0; identical && i < per_config[0].ranked.size(); ++i) {
    identical = per_config[0].ranked[i].label ==
                    per_config[1].ranked[i].label &&
                per_config[0].ranked[i].shapley ==
                    per_config[1].ranked[i].shapley;
  }
  bench::Verdict(identical,
                 "sharded estimates are bit-identical across thread counts");
  if (seconds[1] > 0) {
    std::printf("speedup at %zu threads: %.2fx\n",
                ThreadPool::DefaultThreads(), seconds[0] / seconds[1]);
  }
}

}  // namespace
}  // namespace trex

int main() {
  trex::Run();
  return 0;
}
