#include "workload.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "timing_algorithm.h"

namespace perfbench {
namespace {

/// Chains FNV-1a (common/hash.h) over a value's bytes: `hash` is the
/// running digest.
template <typename T>
std::uint64_t Mix(std::uint64_t hash, const T& value) {
  return trex::Fnv1aBytes(&value, sizeof(value), hash);
}

std::uint64_t MixStr(std::uint64_t hash, const std::string& text) {
  return trex::Fnv1a(text, Mix<std::uint64_t>(hash, text.size()));
}

std::uint64_t MixScore(std::uint64_t hash, const trex::PlayerScore& score) {
  hash = MixStr(hash, score.label);
  hash = Mix(hash, score.shapley);
  hash = Mix(hash, score.std_error);
  return Mix<std::uint64_t>(hash, score.num_samples);
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return trex::SplitMix64(&state);
}

Instance MakeInstance(std::size_t rows, std::uint64_t seed,
                      const trex::repair::RepairAlgorithm& backend) {
  const trex::Schema schema = trex::data::SoccerSchema();
  const std::size_t city = *schema.IndexOf("City");
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t table_seed = DeriveSeed(seed, attempt);
    trex::data::SoccerGenOptions gen;
    gen.num_rows = rows;
    gen.seed = table_seed;
    trex::data::GeneratedData world = trex::data::GenerateSoccer(gen);

    trex::data::ErrorInjectorOptions inject;
    inject.error_rate = 0.04;
    inject.weight_swap = 1.0;
    inject.weight_typo = 0.0;
    inject.weight_missing = 0.0;
    inject.columns = {city, *schema.IndexOf("Country")};
    inject.seed = DeriveSeed(table_seed, 1);
    trex::data::InjectionResult injected =
        trex::data::InjectErrors(world.clean, inject);

    trex::Result<trex::Table> reference =
        backend.Repair(world.dcs, injected.dirty);
    TREX_CHECK(reference.ok()) << reference.status().ToString();
    trex::Result<trex::Table> bare =
        backend.Repair(trex::dc::DcSet(), injected.dirty);
    TREX_CHECK(bare.ok()) << bare.status().ToString();

    Instance instance;
    for (std::size_t row = 0; row < injected.dirty.num_rows(); ++row) {
      const trex::CellRef cell{row, city};
      if (reference->at(cell) == injected.dirty.at(cell)) continue;
      instance.targets.push_back(cell);
      instance.repaired_without_constraints.push_back(bare->at(cell) ==
                                                      reference->at(cell));
    }
    if (instance.targets.empty()) continue;
    instance.dirty = std::make_shared<const trex::Table>(
        std::move(injected.dirty));
    instance.dcs = std::move(world.dcs);
    return instance;
  }
}

namespace {

Job JobFor(std::shared_ptr<const Instance> instance, std::size_t t,
           trex::ExplainKind kind) {
  Job job;
  job.request.target = instance->targets.at(t);
  job.request.kind = kind;
  job.grand_value = instance->repaired_without_constraints.at(t) ? 0.0 : 1.0;
  job.instance = std::move(instance);
  return job;
}

}  // namespace

Job ConstraintsJob(std::shared_ptr<const Instance> instance, std::size_t t) {
  return JobFor(std::move(instance), t, trex::ExplainKind::kConstraints);
}

Job CellsJob(std::shared_ptr<const Instance> instance, std::size_t t,
             std::size_t sweeps, std::uint64_t seed) {
  Job job = JobFor(std::move(instance), t, trex::ExplainKind::kCells);
  job.request.cells.method = trex::CellMethod::kSampling;
  job.request.cells.policy = trex::AbsentCellPolicy::kNull;
  job.request.cells.num_samples = sweeps;
  job.request.cells.seed = seed;
  return job;
}

Job SingleCellJob(std::shared_ptr<const Instance> instance, std::size_t t,
                  std::size_t samples, std::uint64_t seed) {
  const std::size_t team =
      *instance->dirty->schema().IndexOf("Team");
  Job job = JobFor(std::move(instance), t, trex::ExplainKind::kSingleCell);
  job.request.single_cell = trex::CellRef{job.request.target.row, team};
  job.request.cells.method = trex::CellMethod::kSampling;
  job.request.cells.policy = trex::AbsentCellPolicy::kNull;
  job.request.cells.num_samples = samples;
  job.request.cells.seed = seed;
  return job;
}

std::uint64_t Digest(const trex::ExplainResult& result) {
  const auto kind = static_cast<std::uint64_t>(result.kind);
  std::uint64_t hash = trex::Fnv1aBytes(&kind, sizeof(kind));
  hash = Mix<std::uint64_t>(hash, result.target.row);
  hash = Mix<std::uint64_t>(hash, result.target.col);
  if (result.explanation.has_value()) {
    hash = MixStr(hash, result.explanation->method);
    for (const trex::PlayerScore& score : result.explanation->ranked) {
      hash = MixScore(hash, score);
    }
  }
  if (result.single_cell.has_value()) hash = MixScore(hash, *result.single_cell);
  return hash;
}

bool SatisfiesEfficiency(const Job& job, const trex::ExplainResult& result) {
  if (job.request.kind != trex::ExplainKind::kConstraints) return true;
  if (!result.explanation.has_value()) return false;
  if (result.explanation->method != "exact") return true;
  return std::abs(result.explanation->TotalAttribution() - job.grand_value) <=
         1e-9;
}

Replay ReplayOnFreshEngine(
    std::shared_ptr<const trex::repair::RepairAlgorithm> backend,
    const Job& job, bool timed) {
  std::shared_ptr<TimingAlgorithm> timing;
  if (timed) {
    timing = std::make_shared<TimingAlgorithm>(backend);
    backend = timing;
  }
  trex::EngineOptions options;
  options.num_threads = 1;
  trex::Engine engine(backend, job.instance->dcs, job.instance->dirty,
                      options);
  Replay replay;
  const Clock::time_point start = Clock::now();
  trex::Result<trex::ExplainResult> result = engine.Explain(job.request);
  replay.explain_us = UsSince(start);
  replay.ok = result.ok() && SatisfiesEfficiency(job, *result);
  if (result.ok()) replay.digest = Digest(*result);
  replay.calls = engine.num_algorithm_calls();
  replay.hits = engine.num_cache_hits();
  if (timing) {
    for (const TimingAlgorithm::Call& call : timing->calls()) {
      replay.backend_us += call.us;
    }
  }
  return replay;
}

}  // namespace perfbench
