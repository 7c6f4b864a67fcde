#include "client.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

Client::Client(trex::serving::ServiceOptions options,
               std::shared_ptr<const trex::repair::RepairAlgorithm> backend)
    : backend_(std::move(backend)),
      service_(std::make_unique<trex::serving::ExplainService>(
          std::move(options))) {}

void Client::Send(const Job& job, std::size_t job_index,
                  Clock::time_point due, Outcome* out) {
  out->job = job_index;
  out->due = due;
  out->depth = static_cast<double>(service_->pending());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sent_;
  }
  trex::serving::RequestOptions options;
  options.on_complete = [this, &job,
                         out](const trex::Result<trex::ExplainResult>& result) {
    out->done = Clock::now();
    out->ok = result.ok() && SatisfiesEfficiency(job, *result);
    if (result.ok()) {
      out->digest = Digest(*result);
      out->calls = result->algorithm_calls;
      out->hits = result->cache_hits;
      out->cross_hits = result->cross_request_hits;
      out->sweeps = result->sweeps;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++resolved_;
    }
    resolved_cv_.notify_all();
  };
  out->sent = Clock::now();
  // The ticket is not kept: the callback records the response.
  (void)service_->Submit(backend_, job.instance->dcs, job.instance->dirty,
                         job.request, std::move(options));
  out->submit_us = UsSince(out->sent);
}

bool Client::Drain(std::chrono::seconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return resolved_cv_.wait_for(lock, timeout,
                               [this] { return resolved_ == sent_; });
}

void DrainOrDie(Client& client) {
  constexpr auto kTimeout = std::chrono::seconds(90);
  if (!client.Drain(kTimeout)) {
    std::fprintf(stderr, "error: requests did not resolve within %llds\n",
                 static_cast<long long>(kTimeout.count()));
    std::_Exit(3);
  }
}

}  // namespace perfbench
