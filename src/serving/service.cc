#include "serving/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/random.h"

namespace trex::serving {

namespace {

// Backoff before the attempt after `failed_attempt` (1-based):
// exponential growth capped at `max_backoff`, scaled by a jitter
// factor drawn deterministically from the policy seed and the leader
// job's id — a replayed schedule backs off identically.
std::chrono::nanoseconds RetryBackoff(const RetryPolicy& policy,
                                      std::uint64_t job_id,
                                      std::size_t failed_attempt) {
  const double cap = static_cast<double>(policy.max_backoff.count());
  double backoff = static_cast<double>(policy.initial_backoff.count());
  for (std::size_t i = 1; i < failed_attempt && backoff < cap; ++i) {
    backoff *= policy.multiplier;
  }
  backoff = std::min(backoff, cap);
  if (policy.jitter > 0.0) {
    std::uint64_t state = policy.seed ^ (job_id * 0x9e3779b97f4a7c15ULL) ^
                          (0xbf58476d1ce4e5b9ULL * failed_attempt);
    SplitMix64(&state);
    const double draw =
        static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    backoff *= 1.0 + policy.jitter * (2.0 * draw - 1.0);
  }
  backoff = std::max(backoff, 0.0);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(backoff));
}

}  // namespace

Ticket Ticket::Rejected(Status status) {
  TREX_CHECK(!status.ok());
  Ticket ticket;
  std::promise<Result<ExplainResult>> promise;
  promise.set_value(std::move(status));
  ticket.future_ = promise.get_future().share();
  return ticket;
}

void Ticket::Cancel() {
  if (cancel_ != nullptr) cancel_->Cancel();
}

bool Ticket::done() const {
  if (!future_.valid()) return false;
  return future_.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

Result<ExplainResult> Ticket::Wait() {
  TREX_CHECK(future_.valid()) << "Wait() on a default-constructed ticket";
  return future_.get();
}

ExplainService::ExplainService(ServiceOptions options)
    : options_(options), router_(options.router) {
  const std::size_t workers = std::max<std::size_t>(options_.num_workers, 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExplainService::~ExplainService() {
  std::vector<std::shared_ptr<Job>> drained;
  {
    MutexLock lock(mu_);
    stop_ = true;
    drained.assign(queue_.begin(), queue_.end());
    queue_.clear();
    // Flip every outstanding token: queued jobs are resolved below and
    // in-flight sweeps stop at their next poll, so join() is prompt.
    for (auto& [id, job] : outstanding_) job->cancel->Cancel();
  }
  work_cv_.NotifyAll();
  for (std::shared_ptr<Job>& job : drained) {
    Resolve(job, Status::Cancelled("service shutting down"));
  }
  for (std::thread& worker : workers_) worker.join();
}

bool ExplainService::CoalescingCompatible(const Job& job, const Job& leader) {
  if (job.key != leader.key) return false;
  // Keys match on 64-bit fingerprints; verify in full so a collision is
  // never coalesced into another instance's group (the same discipline
  // the router applies). Shared-table submissions hit the cheap pointer
  // path.
  return job.dcs == leader.dcs &&
         (job.table == leader.table || *job.table == *leader.table);
}

Ticket ExplainService::Submit(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm, dc::DcSet dcs,
    std::shared_ptr<const Table> table, ExplainRequest request,
    RequestOptions options) {
  TREX_CHECK(algorithm != nullptr);
  TREX_CHECK(table != nullptr);
  auto job = std::make_shared<Job>();
  job->priority = options.priority;
  job->deadline = options.deadline;
  job->key = EngineRouter::KeyOf(*algorithm, dcs, *table);
  job->algorithm = std::move(algorithm);
  job->dcs = std::move(dcs);
  job->table = std::move(table);
  job->cancel = std::make_shared<CancelSource>();
  job->request = std::move(request);
  // The engine polls one token; merge the ticket's lever with the
  // caller's token (and any token already on the request).
  job->request.cancel = CancelToken::AnyOf(
      CancelToken::AnyOf(job->request.cancel, options.cancel),
      job->cancel->token());
  if (job->deadline.has_value()) {
    if (options.degrade_on_deadline) {
      // Graceful degradation: the timer fires a *soften* source, which
      // flips the sampled paths' stopping rule to finish-current-wave —
      // the job resolves OK with partial confidence-bounded estimates
      // instead of being killed.
      job->soften_cancel = std::make_shared<CancelSource>();
      job->request.soften = CancelToken::AnyOf(job->request.soften,
                                               job->soften_cancel->token());
      job->deadline_id = deadlines_.Arm(*job->deadline, job->soften_cancel);
    } else {
      // Deadline enforcement is just cancellation with its own source
      // (so expiry is distinguishable from a caller cancel): armed
      // here, the timer kills the job wherever it is — queued or
      // mid-sweep.
      job->deadline_cancel = std::make_shared<CancelSource>();
      job->request.cancel = CancelToken::AnyOf(
          job->request.cancel, job->deadline_cancel->token());
      job->deadline_id = deadlines_.Arm(*job->deadline, job->deadline_cancel);
    }
  }
  job->on_complete = std::move(options.on_complete);

  Ticket ticket;
  ticket.cancel_ = job->cancel;
  ticket.future_ = job->promise.get_future().share();

  // Breaker fast-fail: a key whose circuit breaker is open is refused
  // at admission — the job never takes queue capacity, and the caller
  // sees the same `kUnavailable` a gated engine call would produce.
  // The router never transitions breaker state here (see router.h).
  Status admit = router_.AdmitKey(job->key);

  // Admission: under a full queue, shed the worst job of queue ∪
  // {incoming} — the incoming job itself when nothing queued is worse.
  std::shared_ptr<Job> shed;
  bool shed_was_cancelled = false;
  bool stopped = false;
  bool admitted = false;
  {
    MutexLock lock(mu_);
    job->id = next_id_++;
    job->seq = job->id;
    ticket.id_ = job->id;
    ++stats_.submitted;
    if (stop_) {
      stopped = true;
    } else if (!admit.ok()) {
      // Resolved below, outside `mu_`; counted like any other failed
      // job in `Resolve`.
    } else {
      if (options_.max_queued_jobs > 0 &&
          queue_.size() >= options_.max_queued_jobs) {
        // Reclaim a dead queued job first: one already cancelled (or
        // deadline-expired) will never run, so it must not hold
        // capacity against live work. It resolves `Cancelled`, exactly
        // as it would have at dequeue — never `Rejected`.
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if ((*it)->request.cancel.cancelled()) {
            shed = *it;
            shed_was_cancelled = true;
            queue_.erase(it);
            break;
          }
        }
        if (shed == nullptr) {
          const std::shared_ptr<Job>& victim = *queue_.rbegin();
          if (JobOrder{}(job, victim)) {
            shed = victim;
            queue_.erase(std::prev(queue_.end()));
          } else {
            shed = job;
          }
        }
      }
      if (shed != job) {
        outstanding_.emplace(job->id, job);
        queue_.insert(job);
        admitted = true;
      }
      stats_.queue_high_water =
          std::max(stats_.queue_high_water, queue_.size());
    }
  }
  if (stopped) {
    Resolve(job, Status::Cancelled("service is shut down"));
    return ticket;
  }
  if (!admit.ok()) {
    Resolve(job, std::move(admit));
    return ticket;
  }
  if (shed != nullptr) {
    Resolve(shed, shed_was_cancelled
                      ? Status::Cancelled("request cancelled while queued")
                      : Status::Rejected(
                            "service overloaded: queue full at " +
                            std::to_string(options_.max_queued_jobs) +
                            " jobs; lowest-priority job shed"));
  }
  if (admitted) work_cv_.NotifyOne();
  return ticket;
}

Result<ExplainResult> ExplainService::ExplainSync(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm, dc::DcSet dcs,
    std::shared_ptr<const Table> table, ExplainRequest request,
    RequestOptions options) {
  Ticket ticket =
      Submit(std::move(algorithm), std::move(dcs), std::move(table),
             std::move(request), std::move(options));
  return ticket.Wait();
}

void ExplainService::WorkerLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(lock);
      if (stop_) return;  // destructor drained and resolves the queue
      auto leader_it = queue_.begin();
      std::shared_ptr<Job> leader = *leader_it;
      queue_.erase(leader_it);
      batch.push_back(leader);
      // Coalesce: gather queued same-engine jobs, best-first (so the
      // members of an overfull group left behind are the worst ones).
      // Gathered jobs jump the queue relative to other engines' jobs —
      // the cost of running them as one group — but keep their own
      // deadlines, cancellation, and callbacks.
      for (auto it = queue_.begin();
           it != queue_.end() &&
           batch.size() < std::max<std::size_t>(
                              options_.max_coalesced_requests, 1);) {
        if (CoalescingCompatible(**it, *leader)) {
          batch.push_back(*it);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    ServeBatch(std::move(batch));
  }
}

void ExplainService::ServeBatch(std::vector<std::shared_ptr<Job>> jobs) {
  struct Resolution {
    std::shared_ptr<Job> job;
    Result<ExplainResult> result;
    bool expired = false;
  };
  std::vector<Resolution> resolutions;
  resolutions.reserve(jobs.size());
  // Screens one member; cancelled/expired jobs resolve without running
  // — in particular a member cancelled while queued drops out of the
  // group here, before it runs.
  auto screen = [&](const std::shared_ptr<Job>& job) {
    if (job->request.cancel.cancelled()) {
      resolutions.push_back(
          {job, Status::Cancelled("request cancelled while queued"), false});
      return false;
    }
    if (job->deadline.has_value() && job->soften_cancel == nullptr &&
        std::chrono::steady_clock::now() > *job->deadline) {
      resolutions.push_back(
          {job, Status::Cancelled("deadline exceeded while queued"), true});
      return false;
    }
    // A degradable job (`soften_cancel` armed) is never screened out on
    // its deadline: its fired soften token makes the sampled run
    // self-limit to about one wave, and the caller gets partial
    // estimates instead of nothing.
    return true;
  };

  std::vector<std::shared_ptr<Job>> live;
  live.reserve(jobs.size());
  for (const std::shared_ptr<Job>& job : jobs) {
    if (screen(job)) live.push_back(job);
  }
  if (!live.empty()) {
    // One engine acquisition for the whole group (members were verified
    // compatible with the leader at gather time). Per-engine
    // serialization: the engine is single-caller; groups for
    // *different* engines overlap across workers. Resolution — which
    // fires user callbacks — happens after this scope releases the
    // engine.
    const std::shared_ptr<Job>& leader = live.front();
    std::shared_ptr<EngineEntry> entry = router_.Acquire(
        leader->algorithm, leader->dcs, leader->table, leader->key);
    MutexLock guard(entry->mu);
    // Re-screen after the wait for the engine mutex (behind another
    // group's sweep), which can outlast a deadline: a job that has not
    // started must not pay for a full sweep past its deadline.
    std::vector<std::shared_ptr<Job>> ready;
    ready.reserve(live.size());
    for (const std::shared_ptr<Job>& job : live) {
      if (screen(job)) ready.push_back(job);
    }
    if (!ready.empty()) {
      if (ready.size() > 1) {
        // entry->mu is held here: the one edge fixing the lock order
        // `EngineEntry::mu` before `mu_` (see the file comment).
        MutexLock lock(mu_);
        ++stats_.coalesced_batches;
        stats_.coalesced_jobs += ready.size();
      }
      // Execute with self-healing: every group — a singleton included
      // — runs as one `EnsureRepair` plus one `Explain` per member per
      // attempt, so a coalesced group is bit-identical to the same
      // requests served one by one. Members whose result is
      // *transient* (`kUnavailable`) are retried per `RetryPolicy`;
      // everything else resolves on first observation (failure
      // isolation: one member's backend error never touches its
      // siblings' tickets). Each attempt is gated by the key's circuit
      // breaker and reports exactly one outcome back to it.
      const std::size_t max_attempts =
          std::max<std::size_t>(options_.retry.max_attempts, 1);
      std::vector<std::shared_ptr<Job>> pending = ready;
      for (std::size_t attempt = 1; !pending.empty(); ++attempt) {
        Status gate = router_.BreakerBeginCall(leader->key);
        if (!gate.ok()) {
          // Breaker opened (or all half-open probe slots taken) since
          // admission: the whole remaining group fails fast.
          for (const std::shared_ptr<Job>& job : pending) {
            resolutions.push_back({job, gate, false});
          }
          break;
        }
        if (attempt > 1) {
          MutexLock lock(mu_);
          ++stats_.retries;
        }
        Status repaired = [&]() -> Status {
          TREX_FAULT_INJECT("serving.execute");
          return entry->engine.EnsureRepair();
        }();
        bool transient_seen = false;
        std::vector<std::shared_ptr<Job>> retry_next;
        const bool last_attempt = attempt >= max_attempts;
        if (!repaired.ok()) {
          // Engine-level failure (the shared reference repair): every
          // member observes it, exactly as each would alone — and a
          // transient one retries as a whole.
          transient_seen = repaired.IsTransient();
          if (transient_seen && !last_attempt) {
            retry_next = pending;
          } else {
            for (const std::shared_ptr<Job>& job : pending) {
              resolutions.push_back({job, repaired, false});
            }
          }
        } else {
          // trex-check-ok(cancel-poll): each request carries its own token
          for (const std::shared_ptr<Job>& job : pending) {
            Result<ExplainResult> result = entry->engine.Explain(job->request);
            if (!result.ok() && result.status().IsTransient()) {
              transient_seen = true;
              if (!last_attempt) {
                retry_next.push_back(job);
                continue;
              }
            }
            resolutions.push_back({job, std::move(result), false});
          }
        }
        router_.ReportOutcome(leader->key, transient_seen);
        if (retry_next.empty()) break;

        // Backoff before the next attempt, parked on the retrying
        // members' cancel *and* soften tokens via the interruptible
        // `CancelToken::WaitFor` — an expiring deadline or a caller
        // cancel cuts the sleep immediately; it never outlives the
        // deadline that should have killed it. The engine mutex is
        // released for the duration so sibling groups are not blocked
        // behind a sleeping worker.
        CancelToken wake;
        for (const std::shared_ptr<Job>& job : retry_next) {
          wake = CancelToken::AnyOf(wake, job->request.cancel);
          wake = CancelToken::AnyOf(wake, job->request.soften);
        }
        const std::chrono::nanoseconds backoff =
            RetryBackoff(options_.retry, leader->id, attempt);
        guard.Unlock();
        (void)wake.WaitFor(backoff);
        guard.Lock();
        // Re-screen after the park: members cancelled or expired
        // during the backoff resolve now instead of burning another
        // attempt.
        pending.clear();
        for (const std::shared_ptr<Job>& job : retry_next) {
          if (screen(job)) pending.push_back(job);
        }
      }
    }
    // Sample the memo footprint while still holding the engine (the
    // router's stats read this without the entry mutex).
    entry->approx_memo_bytes.store(entry->engine.approx_memo_bytes());
  }
  for (Resolution& resolution : resolutions) {
    Resolve(resolution.job, std::move(resolution.result), resolution.expired);
  }
}

void ExplainService::Resolve(const std::shared_ptr<Job>& job,
                             Result<ExplainResult> result, bool expired) {
  // A cancelled job whose armed deadline fired expired, whoever's token
  // the sweep happened to observe first.
  if (!result.ok() && result.status().IsCancelled() &&
      job->deadline_cancel != nullptr && job->deadline_cancel->cancelled()) {
    expired = true;
  }
  {
    MutexLock lock(mu_);
    if (result.ok()) {
      ++stats_.completed;
      if (result->approximate) ++stats_.degraded;
    } else if (result.status().IsCancelled()) {
      ++stats_.cancelled;
      if (expired) ++stats_.expired;
    } else if (result.status().IsRejected()) {
      ++stats_.shed;
    } else {
      ++stats_.failed;
      if (result.status().IsTransient()) {
        ++stats_.failed_transient;
      } else {
        ++stats_.failed_permanent;
      }
      ++stats_.failed_by_code[result.status().code()];
    }
    outstanding_.erase(job->id);
  }
  if (job->deadline_id != 0) deadlines_.Disarm(job->deadline_id);
  job->promise.set_value(result);
  if (job->on_complete) job->on_complete(result);
}

ServiceStats ExplainService::stats() const {
  ServiceStats stats;
  {
    MutexLock lock(mu_);
    stats = stats_;
    stats.queue_depth = queue_.size();
  }
  stats.router = router_.stats();
  return stats;
}

std::size_t ExplainService::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace trex::serving
