// A timing pass-through repair backend: the traced run's view of the
// repair layer from outside. It forwards every call of the
// `RepairAlgorithm` interface to the wrapped backend unchanged, so
// explanations through it are bit-identical to the backend's own:
//
//   * `name()`, because `serving::EngineRouter` keys engines by it, and
//   * `InfluenceGraph()`, because the cell game prunes players with it;
//     without it the engine falls back to the conservative DC graph and
//     explains a different player set.
//
// Each `Repair` call is timed with a steady clock and recorded with its
// start time, so the benchmark can split the calls of a measured window
// from those of set-up.

#ifndef PERFBENCH_TIMING_ALGORITHM_H_
#define PERFBENCH_TIMING_ALGORITHM_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "repair/algorithm.h"

namespace perfbench {

class TimingAlgorithm : public trex::repair::RepairAlgorithm {
 public:
  using Clock = std::chrono::steady_clock;

  struct Call {
    Clock::time_point start;
    double us = 0.0;
  };

  explicit TimingAlgorithm(
      std::shared_ptr<const trex::repair::RepairAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  trex::Result<trex::Table> Repair(const trex::dc::DcSet& dcs,
                                   const trex::Table& dirty) const override {
    const Clock::time_point start = Clock::now();
    trex::Result<trex::Table> repaired = inner_->Repair(dcs, dirty);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(Call{start, us});
    return repaired;
  }

  std::optional<trex::dc::AttributeGraph> InfluenceGraph(
      const trex::dc::DcSet& dcs, const trex::Schema& schema) const override {
    return inner_->InfluenceGraph(dcs, schema);
  }

  /// Every call recorded so far, in completion order.
  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  std::shared_ptr<const trex::repair::RepairAlgorithm> inner_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ALGORITHM_H_
