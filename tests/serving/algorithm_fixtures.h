// Instrumented pass-through repairers shared by the serving test suites
// and bench_serving — one copy of the gating / counting / cancellation
// protocols instead of a drift-prone clone per file.
//
// All wrappers delegate `Repair` to an inner algorithm unchanged, so
// explanation *values* through them are identical to the inner
// repairer's; only observability (call counts) and scheduling (gates,
// latency pads, cancel triggers) differ. Each carries its own routing
// name, since `EngineRouter` keys engines by `name()`.

#ifndef TREX_TESTS_SERVING_ALGORITHM_FIXTURES_H_
#define TREX_TESTS_SERVING_ALGORITHM_FIXTURES_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "repair/algorithm.h"
#include "serving/cancel.h"

namespace trex::testing {

/// Pass-through repairer whose calls block until `Release()` — lets a
/// test or bench pin a service worker on a known job while it queues
/// more (the backlog every coalescing/shedding scenario needs).
class GatedAlgorithm : public repair::RepairAlgorithm {
 public:
  explicit GatedAlgorithm(std::shared_ptr<const repair::RepairAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "gated(" + inner_->name() + ")"; }

  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      started_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    return inner_->Repair(dcs, dirty);
  }

  void WaitUntilStarted() const {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [this] { return started_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable started_cv_;
  mutable std::condition_variable release_cv_;
  mutable bool started_ = false;
  bool released_ = false;
};

/// Pass-through repairer that counts calls and optionally pads each
/// with a fixed latency, under a caller-chosen routing name. The
/// counter attributes repair cost to one traffic stream; the pad models
/// I/O-bound backends and stretches sweeps so wall-clock deadlines land
/// mid-run deterministically enough to assert on call counts.
class InstrumentedAlgorithm : public repair::RepairAlgorithm {
 public:
  InstrumentedAlgorithm(std::string name,
                        std::shared_ptr<const repair::RepairAlgorithm> inner,
                        std::chrono::microseconds pad =
                            std::chrono::microseconds(0))
      : name_(std::move(name)), inner_(std::move(inner)), pad_(pad) {}

  std::string name() const override { return name_; }

  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override {
    calls_.fetch_add(1);
    // Widens coalescing windows. Not a sync point: tests gate on
    // calls_/latches, never on this timing.
    // trex-check-ok(sleep-discipline): simulates a slow repair
    if (pad_.count() > 0) std::this_thread::sleep_for(pad_);
    return inner_->Repair(dcs, dirty);
  }

  std::size_t calls() const { return calls_.load(); }

 private:
  std::string name_;
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
  std::chrono::microseconds pad_;
  mutable std::atomic<std::size_t> calls_{0};
};

/// Pass-through repairer that counts calls and flips a cancel source
/// once a budget is spent — deterministic mid-sweep cancellation.
class CancelAfterAlgorithm : public repair::RepairAlgorithm {
 public:
  CancelAfterAlgorithm(std::shared_ptr<const repair::RepairAlgorithm> inner,
                       std::size_t cancel_after)
      : inner_(std::move(inner)), cancel_after_(cancel_after) {}

  std::string name() const override {
    return "cancel-after(" + inner_->name() + ")";
  }

  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override {
    if (calls_.fetch_add(1) + 1 >= cancel_after_ && cancel_after_ > 0) {
      source_.Cancel();
    }
    return inner_->Repair(dcs, dirty);
  }

  std::size_t calls() const { return calls_.load(); }
  CancelToken token() const { return source_.token(); }

 private:
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
  std::size_t cancel_after_;
  mutable std::atomic<std::size_t> calls_{0};
  mutable CancelSource source_;
};

}  // namespace trex::testing

#endif  // TREX_TESTS_SERVING_ALGORITHM_FIXTURES_H_
