// Experiment: §2.3 scalability claims — "computing the Shapley value is
// exponential time in the number of DCs/table cells ... with DCs the
// naïve approach is feasible as the number of DCs is usually small ...
// the number of cells in a table can be very large, so T-REx uses a
// sampling algorithm".
//
// Cross-backend workload sweep (runs before the google-benchmark cases):
// for each size in --cross_backend_rows (default 1000,10000,100000) the
// harness in workload/comparison.h generates a ground-truth synthetic
// world, injects errors, and drives every registered repair backend over
// the same dirty table, one `Engine::Explain` per target on one engine
// per backend, emitting one "JSON {...}" line per (backend, size) with
// repair-quality and explanation-stability metrics. Flags (stripped
// before google-benchmark sees argv):
//   --cross_backend_rows=a,b,c   comma-separated sweep sizes
//   --cross_backend_targets=N    explained targets per backend (default 4)
//   --cross_backend_only         skip the google-benchmark cases (CI smoke)
//   --no_cross_backend           skip the sweep
//
// google-benchmark sweeps:
//   * ExactConstraintShapley/k     — 2^k growth in black-box calls;
//   * SamplingCellShapley/rows    — sampling cost grows ~linearly with
//                                    the player count (fixed m);
//   * Repair<alg>/rows            — cost of one black-box call, the
//                                    unit all explanation budgets are
//                                    denominated in.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/repair_game.h"
#include "core/shapley_exact.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"
#include "dc/parser.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "workload/comparison.h"

namespace {

using namespace trex;  // NOLINT

/// A DC set with k constraints over the soccer schema: the four paper
/// DCs plus synthetic FD variants (distinct but harmless) to grow k.
dc::DcSet GrowDcSet(std::size_t k) {
  dc::DcSet dcs = data::SoccerConstraints();
  const Schema schema = data::SoccerSchema();
  const char* extras[] = {
      "!(t1.Team == t2.Team & t1.Country != t2.Country)",
      "!(t1.Team == t2.Team & t1.League != t2.League)",
      "!(t1.City == t2.City & t1.League != t2.League)",
      "!(t1.League == t2.League & t1.City == t2.City & t1.Team != t2.Team "
      "& t1.Year == t2.Year)",
      "!(t1.Team == t2.Team & t1.Year == t2.Year & t1.Place != t2.Place)",
      "!(t1.League == t2.League & t1.Year == t2.Year & t1.Place == "
      "t2.Place & t1.City != t2.City)",
      "!(t1.Country == t2.Country & t1.League != t2.League & t1.City == "
      "t2.City)",
      "!(t1.Team == t2.Team & t1.Place == t2.Place & t1.Year != t2.Year)",
      "!(t1.City == t2.City & t1.Year == t2.Year & t1.Team != t2.Team & "
      "t1.Place == t2.Place)",
      "!(t1.League == t2.League & t1.Team == t2.Team & t1.City != "
      "t2.City)",
      "!(t1.Country == t2.Country & t1.Year == t2.Year & t1.League != "
      "t2.League & t1.Place == t2.Place)",
      "!(t1.Team == t2.Team & t1.City == t2.City & t1.Year != t2.Year & "
      "t1.Place == t2.Place)",
  };
  std::size_t i = 0;
  while (dcs.size() < k) {
    auto dc = dc::ParseDc(extras[i % std::size(extras)], schema,
                          "X" + std::to_string(i + 1));
    if (!dc.ok()) std::abort();
    dcs.Add(std::move(dc).value());
    ++i;
  }
  return dcs.Subset((std::uint64_t{1} << k) - 1);
}

void ExactConstraintShapley(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  auto alg = repair::MakeAlgorithm1();
  const dc::DcSet dcs = GrowDcSet(k);
  const Table dirty = data::SoccerDirtyTable();

  std::size_t calls = 0;
  for (auto _ : state) {
    auto box = BlackBoxRepair::Make(alg.get(), dcs, dirty,
                                    data::SoccerTargetCell());
    if (!box.ok()) state.SkipWithError("box failed");
    ConstraintGame game(&*box);
    shap::ExactShapleyOptions options;
    options.max_players = 22;
    auto values = shap::ComputeExactShapley(game, options);
    if (!values.ok()) state.SkipWithError("shapley failed");
    benchmark::DoNotOptimize(values);
    calls = box->num_algorithm_calls();
  }
  state.counters["blackbox_calls"] = static_cast<double>(calls);
}
BENCHMARK(ExactConstraintShapley)->DenseRange(4, 14, 2)
    ->Unit(benchmark::kMillisecond);

void SamplingCellShapley(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto generated = data::GenerateSoccer({.num_rows = rows, .seed = 5});
  const Schema schema = generated.clean.schema();
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.10;
  inject.weight_swap = 1.0;  // swaps only: detectable & repairable
  inject.weight_typo = 0.0;
  inject.weight_missing = 0.0;
  inject.columns = {*schema.IndexOf("Country")};
  inject.seed = 6;
  auto injected = data::InjectErrors(generated.clean, inject);
  auto alg = repair::MakeAlgorithm1();

  ExplainRequest request;
  request.kind = ExplainKind::kCells;
  request.cells.num_samples = 3;  // fixed tiny m: measure per-sweep cost
  request.cells.policy = AbsentCellPolicy::kNull;
  request.cells.method = CellMethod::kSampling;
  request.cells.seed = 7;
  // A fresh engine per call: each one pays the reference repair and
  // starts from a cold memo.
  auto explain = [&](CellRef cell) {
    Engine engine(alg, generated.dcs, injected.dirty);
    request.target = cell;
    return engine.Explain(request);
  };

  // Find an injected error the algorithm actually repairs back.
  CellRef target{};
  bool found = false;
  for (const RepairedCell& error : injected.injected) {
    if (explain(error.cell).ok()) {
      target = error.cell;
      found = true;
      break;
    }
  }
  if (!found) {
    state.SkipWithError("no repaired error cell to explain");
    return;
  }

  std::size_t players = 0;
  for (auto _ : state) {
    auto ex = explain(target);
    if (!ex.ok()) {
      state.SkipWithError(ex.status().ToString().c_str());
      return;
    }
    players = ex->explanation->ranked.size();
    benchmark::DoNotOptimize(ex);
  }
  state.counters["players"] = static_cast<double>(players);
}
BENCHMARK(SamplingCellShapley)->RangeMultiplier(2)->Range(16, 64)
    ->Unit(benchmark::kMillisecond);

template <typename Alg>
void RepairCost(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto generated = data::GenerateSoccer({.num_rows = rows, .seed = 11});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.03;
  inject.seed = 12;
  auto injected = data::InjectErrors(generated.clean, inject);
  Alg alg;
  for (auto _ : state) {
    auto repaired = alg.Repair(generated.dcs, injected.dirty);
    if (!repaired.ok()) state.SkipWithError("repair failed");
    benchmark::DoNotOptimize(repaired);
  }
}
BENCHMARK(RepairCost<repair::HoloCleanRepair>)
    ->RangeMultiplier(2)->Range(32, 256)->Unit(benchmark::kMillisecond)
    ->Name("RepairHoloClean");
BENCHMARK(RepairCost<repair::HolisticRepair>)
    ->RangeMultiplier(2)->Range(32, 256)->Unit(benchmark::kMillisecond)
    ->Name("RepairHolistic");
BENCHMARK(RepairCost<repair::FdRepair>)
    ->RangeMultiplier(2)->Range(32, 256)->Unit(benchmark::kMillisecond)
    ->Name("RepairFd");

void RuleRepairCost(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto generated = data::GenerateSoccer({.num_rows = rows, .seed = 11});
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.03;
  inject.seed = 12;
  auto injected = data::InjectErrors(generated.clean, inject);
  auto alg = repair::MakeAlgorithm1();
  for (auto _ : state) {
    auto repaired = alg->Repair(generated.dcs, injected.dirty);
    if (!repaired.ok()) state.SkipWithError("repair failed");
    benchmark::DoNotOptimize(repaired);
  }
}
BENCHMARK(RuleRepairCost)->RangeMultiplier(2)->Range(32, 256)
    ->Unit(benchmark::kMillisecond)->Name("RepairAlgorithm1");

/// One harness invocation per sweep size; one JSON line per backend.
void RunCrossBackendSweep(const std::vector<std::size_t>& sizes,
                          std::size_t num_targets) {
  for (std::size_t rows : sizes) {
    workload::ComparisonOptions options;
    options.world.num_rows = rows;
    options.world.seed = 101;
    options.errors.seed = 102;
    // Fixed error budget: the sweep measures how cost scales with table
    // size, so the ground-truth error count is pinned once tables are
    // large enough to hit the cap (inference-style backends' work
    // scales with noisy cells, not rows).
    options.errors.max_errors = 256;
    options.num_targets = num_targets;
    auto report = workload::RunComparison(options);
    if (!report.ok()) {
      std::fprintf(stderr, "cross-backend sweep failed at %zu rows: %s\n",
                   rows, report.status().ToString().c_str());
      std::exit(1);
    }
    std::printf(
        "\n=== cross-backend comparison: %zu rows, %zu injected errors, "
        "%zu targets ===\n",
        report->num_rows, report->num_errors, report->num_targets);
    for (std::size_t i = 0; i < report->backends.size(); ++i) {
      const workload::BackendRun& run = report->backends[i];
      if (run.error.empty()) {
        std::printf("%-12s %s  explained %zu/%zu  tau(mean)=%.3f\n",
                    run.backend.c_str(), run.quality.ToString().c_str(),
                    run.explained_targets, report->num_targets,
                    report->stability[i].mean_kendall_tau);
      } else {
        std::printf("%-12s FAILED: %s\n", run.backend.c_str(),
                    run.error.c_str());
      }
      std::printf("JSON %s\n", workload::BackendJsonLine(*report, i).c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trex;  // NOLINT

  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  std::size_t num_targets = 4;
  bool sweep = true;
  bool gbench = true;

  // Strip the sweep's own flags so google-benchmark never sees them.
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--cross_backend_rows=", 0) == 0) {
      sizes.clear();
      for (const std::string& part :
           Split(value_of("--cross_backend_rows="), ',')) {
        auto parsed = ParseInt64(Trim(part));
        if (!parsed.ok() || *parsed <= 0) {
          std::fprintf(stderr, "bad --cross_backend_rows entry: '%s'\n",
                       part.c_str());
          return 1;
        }
        sizes.push_back(static_cast<std::size_t>(*parsed));
      }
    } else if (arg.rfind("--cross_backend_targets=", 0) == 0) {
      auto parsed = ParseInt64(value_of("--cross_backend_targets="));
      if (!parsed.ok() || *parsed <= 0) {
        std::fprintf(stderr, "bad --cross_backend_targets value\n");
        return 1;
      }
      num_targets = static_cast<std::size_t>(*parsed);
    } else if (arg == "--cross_backend_only") {
      gbench = false;
    } else if (arg == "--no_cross_backend") {
      sweep = false;
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (sweep) RunCrossBackendSweep(sizes, num_targets);
  if (gbench) {
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
