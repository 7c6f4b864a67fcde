// The benchmark's client: sends jobs through the public front door,
// `serving::ExplainService::Submit`, and records each response when it
// resolves. Latency is timed from when a request was *due*, so a stalled
// generator is charged to the requests it delayed.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "repair/algorithm.h"
#include "serving/service.h"
#include "workload.h"

namespace perfbench {

/// What the client saw of one request.
struct Outcome {
  /// Index of the distinct job the request carried.
  std::size_t job = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  /// Time inside `Submit`.
  double submit_us = 0.0;
  /// `pending()` just before the send: the queue depth an arrival sees.
  double depth = 0.0;
  /// Resolved OK, with an efficient exact constraint ranking.
  bool ok = false;
  std::uint64_t digest = 0;
  std::size_t calls = 0;
  std::size_t hits = 0;
  std::size_t cross_hits = 0;
  std::size_t sweeps = 0;

  double LatencyMs() const { return 1e-3 * UsBetween(due, done); }
  double LagMs() const { return 1e-3 * UsBetween(due, sent); }
};

/// One service plus completion tracking. Thread-safe for one sending
/// thread; responses are recorded on the service's worker threads.
class Client {
 public:
  Client(trex::serving::ServiceOptions options,
         std::shared_ptr<const trex::repair::RepairAlgorithm> backend);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `job` (distinct-job index `job_index`), due at `due`, and
  /// returns at once. `out` and `job` must stay alive until `Drain`.
  void Send(const Job& job, std::size_t job_index, Clock::time_point due,
            Outcome* out);

  /// Blocks until every request sent so far has resolved; false when
  /// `timeout` passed first.
  bool Drain(std::chrono::seconds timeout);

  trex::serving::ExplainService& service() { return *service_; }
  const std::shared_ptr<const trex::repair::RepairAlgorithm>& backend()
      const {
    return backend_;
  }

 private:
  std::shared_ptr<const trex::repair::RepairAlgorithm> backend_;
  std::mutex mu_;
  std::condition_variable resolved_cv_;
  std::size_t sent_ = 0;
  std::size_t resolved_ = 0;
  /// Declared last: destroyed first, so no callback outlives `mu_`.
  std::unique_ptr<trex::serving::ExplainService> service_;
};

/// `client.Drain` with a timeout past any sane request: a request still
/// unresolved then is a hang, and the process exits with code 3.
void DrainOrDie(Client& client);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
