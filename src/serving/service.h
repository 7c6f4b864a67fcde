// `serving::ExplainService`: the asynchronous, multi-table front door of
// the explanation stack, built as a three-stage ADMIT → COALESCE →
// EXECUTE scheduler.
//
// T-REx is interactive: users submit new explanation queries while
// earlier Shapley sweeps are still running, and one deployment serves
// many tables. Every score is a sweep over permutations or 2^n subsets
// of full black-box repair runs, so the service's job is deciding how
// that compute is admitted, grouped, and killed:
//
//   ExplainService service;
//   Ticket ticket = service.Submit(algorithm, dcs, table, request,
//                                  {.priority = 5});
//   ... do other work, submit more requests ...
//   Result<ExplainResult> result = ticket.Wait();   // or ticket.Cancel()
//
// ADMIT — `Submit` returns immediately with a `Ticket` (a future plus a
// cancellation handle). The queue is bounded by
// `ServiceOptions::max_queued_jobs`; when it is full, a queued job that
// was already cancelled is reclaimed first (it resolves `Cancelled`, as
// it would have at dequeue — dead jobs never hold capacity against live
// work), otherwise the worst job of queue ∪ {incoming} — lowest
// priority, then youngest — is load-shed: its ticket resolves
// `Status::Rejected` without the work ever running, so a flood of
// low-priority traffic can never starve a high-priority request out of
// admission. Depth, high-water mark, and shed counts are surfaced in
// `ServiceStats`.
//
// COALESCE — workers drain the queue in priority order (higher
// `RequestOptions::priority` first, FIFO within a level). At dequeue a
// worker gathers queued jobs that route to the same engine key as the
// job it popped (same algorithm id + DcSet/table fingerprints, verified
// by full comparison) up to `ServiceOptions::max_coalesced_requests`,
// and runs the group as one engine acquisition, one `Engine::EnsureRepair`
// and one `Engine::Explain` per member, resolving each job's ticket
// individually. This keeps the engine's amortization (one reference
// repair + shared memo instead of per-job acquire/evict churn) under
// concurrent single-request traffic, while each member keeps its own
// priority, deadline, cancellation, and callback — results are
// bit-identical to uncoalesced execution. A member cancelled while
// queued drops out before it runs.
//
// EXECUTE — per-engine access is serialized (`EngineRouter` hands back
// shared entries; the engine is single-caller). Cancellation is
// cooperative end to end: `Ticket::Cancel()` (or a caller-supplied
// `RequestOptions::cancel` token) stops a queued job before it runs and
// an in-flight job at its next black-box evaluation; the future then
// resolves `Status::Cancelled`. `RequestOptions::deadline` is enforced
// the same way: a `DeadlineSource` timer arms each deadline-carrying
// job's cancel source at admission, so expiry kills the job wherever it
// is — queued, or mid-sweep inside a permutation or 2^n loop — with the
// expiry counted separately (`ServiceStats::expired`) from caller
// cancellation. `RequestOptions::degrade_on_deadline` softens that
// contract: expiry fires the job's *soften* token instead, sampled work
// finishes its current wave, and the ticket resolves OK with partial
// confidence-bounded estimates (`ExplainResult::approximate` +
// achieved CI width) rather than `kCancelled` — deadline-bound traffic
// gets an answer with honest error bars (`ServiceStats::degraded`). An
// optional `on_complete` callback fires on the worker thread after the
// future is resolved.
//
// FAILURE CLASSIFICATION & SELF-HEALING — every error a ticket can
// resolve with falls into exactly one bucket, and the service's
// recovery machinery is keyed off that split:
//
//   * *Transient* — `StatusCode::kUnavailable`, the only code the stack
//     treats as retryable (see common/status.h). The execute stage
//     retries a transient member up to `RetryPolicy::max_attempts`
//     total attempts with exponential backoff and deterministic jitter
//     (seeded per job, so a replay backs off identically). The backoff
//     sleep is a `CancelToken::WaitFor` park on the retrying members'
//     merged cancel tokens — an expiring deadline or a caller cancel
//     cuts a pending backoff immediately; a sleep never outlives the
//     deadline that should have killed it. Retries exhausted, the
//     member fails with the last transient status
//     (`ServiceStats::failed_transient`).
//   * *Permanent* — every other non-cancellation, non-rejection error.
//     Never retried; resolved on first observation
//     (`ServiceStats::failed_permanent`).
//   * *Cancellation / rejection* — `kCancelled` / `kRejected`, counted
//     as before (`cancelled`/`expired`, `shed`).
//
// Transient outcomes also feed the router's per-engine-key circuit
// breaker (see serving/router.h): `Submit` fast-fails admission for a
// key whose breaker is open (`kUnavailable`, counted in `failed` +
// `failed_by_code`, never queued), and each engine call in the execute
// stage is gated by `BreakerBeginCall` / reported via `ReportOutcome`,
// so a persistently failing backend is quarantined instead of burning
// retry budget — and probed back to health after its cooldown.
//
// Failure isolation in coalesced groups: results resolve *per member*.
// One member's backend error (its target's repair call failing)
// resolves only that member's ticket; siblings in the same group still
// resolve OK with bit-identical values. Only an engine-level failure
// (the shared reference repair in `EnsureRepair`) fans to every member
// — exactly what each would observe running alone.
//
// Determinism: scheduling affects only latency, never values — a
// request's result is bit-identical to calling `Engine::Explain`
// synchronously with the same seeds, whether it ran alone or inside a
// coalesced group, because both paths run exactly that code on exactly
// one engine per instance. Recovery preserves this: a transient fault
// followed by a successful retry leaves no trace in the memo (failed
// evaluations write no cache entry; see core/repair_game.h), so
// post-fault results are bit-identical to a fault-free run.
//
// Thread safety: all public methods are thread-safe. Destruction cancels
// queued and in-flight work, resolves every outstanding future, and
// joins the workers.
//
// Lock model (machine-checked under Clang's -Wthread-safety; see
// common/thread_annotations.h): the scheduler state — queue, job
// registry, stats — is `GUARDED_BY(mu_)`. Lock order is
// `EngineEntry::mu` before `mu_` (`ServeBatch` bumps coalescing stats
// while holding the engine), never the reverse: no code path calls into
// an engine, the router, or user callbacks while holding `mu_`, which
// is what keeps `stats()` safe to call from anywhere — including while
// a group holds an entry mutex (pinned by
// tests/serving/stats_deadlock_test.cc).

#ifndef TREX_SERVING_SERVICE_H_
#define TREX_SERVING_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "serving/cancel.h"
#include "serving/router.h"
#include "table/table.h"

namespace trex::serving {

/// Per-request scheduling options.
struct RequestOptions {
  /// Higher-priority requests dequeue first; equal priorities are FIFO.
  /// Priority also orders load-shedding: when the queue is full, the
  /// lowest-priority (then youngest) queued job is shed first.
  int priority = 0;
  /// Wall-clock expiry. Enforced wherever the job is when it passes:
  /// still queued (resolved at dequeue without running) or already
  /// inside a sweep (the armed cancel token stops it at the next
  /// black-box evaluation). Either way the ticket resolves
  /// `Status::Cancelled` and the expiry is counted in
  /// `ServiceStats::expired`.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Degrade instead of cancel at the deadline: expiry fires the
  /// request's *soften* token (`ExplainRequest::soften`) rather than its
  /// cancel token, so a sampled job finishes its current wave and
  /// resolves OK with the partial confidence-bounded estimates it has —
  /// `ExplainResult::approximate` set and `achieved_ci_half_width`
  /// reporting how wide the error bars are — never `kCancelled`. A job
  /// still queued at expiry is allowed to run and self-limits to about
  /// one wave. Kinds that ignore the soften token (the exact
  /// enumeration paths) run to completion, as if no deadline were set.
  /// Degraded completions are counted in `ServiceStats::degraded`.
  bool degrade_on_deadline = false;
  /// Caller-owned cancellation, merged with the ticket's own handle.
  CancelToken cancel;
  /// Invoked right after the future resolves (also for
  /// cancelled/failed/shed jobs) — on the worker thread for jobs that
  /// reached a worker, but on the *submitting* thread for jobs resolved
  /// at admission (a shed job's callback can fire on another caller's
  /// Submit stack, and before that Submit returns). Must not block for
  /// long, must not assume a particular thread, and must not destroy
  /// the service.
  std::function<void(const Result<ExplainResult>&)> on_complete;
};

/// Retry policy for *transient* failures (`StatusCode::kUnavailable`)
/// in the execute stage. Permanent errors are never retried.
struct RetryPolicy {
  /// Total attempts per engine call, first try included. 1 disables
  /// retrying.
  std::size_t max_attempts = 3;
  /// Backoff before attempt k (k >= 2) is
  /// `min(initial_backoff * multiplier^(k-2), max_backoff)`, scaled by
  /// a jitter factor drawn deterministically from `seed` and the
  /// leader job's id — replays back off identically.
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  double multiplier = 2.0;
  /// Jitter factor is uniform in [1 - jitter, 1 + jitter]; 0 disables.
  double jitter = 0.25;
  /// Seed for the jitter chain (splitmix64 over seed ^ job id ^
  /// attempt).
  std::uint64_t seed = 0x7265747279ULL;  // "retry"
};

/// Options for the service.
struct ServiceOptions {
  /// Worker threads executing requests. Requests to different engines
  /// overlap up to this width; requests to the same engine serialize.
  std::size_t num_workers = 2;
  /// Admission cap on queued (not yet running) jobs; 0 = unbounded.
  /// When the queue is full, the worst job of queue ∪ {incoming} —
  /// lowest priority, then youngest — resolves `Status::Rejected`.
  std::size_t max_queued_jobs = 0;
  /// Most jobs one dequeue may run as one coalesced group on one engine
  /// (the popped job plus same-engine queued jobs). 1 disables
  /// coalescing (every job runs alone, the PR 2 behavior). Coalescing
  /// never changes results, only cost and latency.
  std::size_t max_coalesced_requests = 8;
  /// Engine pool configuration (cap + per-engine options + circuit
  /// breaker).
  RouterOptions router;
  /// Transient-failure retry policy for the execute stage.
  RetryPolicy retry;
};

/// Aggregate accounting across the service's lifetime.
struct ServiceStats {
  std::size_t submitted = 0;
  /// Resolved with a value.
  std::size_t completed = 0;
  /// Resolved with a non-cancellation, non-rejection error.
  std::size_t failed = 0;
  /// ...of which resolved with a *transient* error (`kUnavailable`):
  /// retries exhausted, or fast-failed by an open circuit breaker.
  std::size_t failed_transient = 0;
  /// ...and of which resolved with a *permanent* error (anything
  /// else). `failed == failed_transient + failed_permanent`.
  std::size_t failed_permanent = 0;
  /// Failed resolutions broken down by status code (ordered for
  /// deterministic emission; covers exactly the `failed` bucket).
  std::map<StatusCode, std::size_t> failed_by_code;
  /// Re-executions after a transient failure (attempt 2+ in the
  /// execute stage's retry loop, counted once per group attempt).
  std::size_t retries = 0;
  /// Resolved `Cancelled` (caller cancels and deadline expirations).
  std::size_t cancelled = 0;
  /// ...of which were deadline expirations — queued or mid-sweep —
  /// rather than caller cancels.
  std::size_t expired = 0;
  /// Jobs whose deadline expired under `degrade_on_deadline`: resolved
  /// OK (counted in `completed` too) with partial confidence-bounded
  /// estimates instead of `Cancelled`.
  std::size_t degraded = 0;
  /// Load-shed at admission (resolved `Rejected`, never ran).
  std::size_t shed = 0;
  /// Dequeues that ran 2+ jobs as one coalesced group...
  std::size_t coalesced_batches = 0;
  /// ...and the total jobs served by those groups.
  std::size_t coalesced_jobs = 0;
  /// Jobs queued right now.
  std::size_t queue_depth = 0;
  /// Largest queue depth ever observed.
  std::size_t queue_high_water = 0;
  RouterStats router;
};

/// Handle to one submitted request: a future plus a cancellation lever.
/// Copyable; all copies observe the same request.
class Ticket {
 public:
  Ticket() = default;

  /// A ticket already resolved with `status` and attached to no service
  /// — for submissions rejected before admission (e.g. a session asked
  /// to explain with no repair). `status` must not be OK.
  static Ticket Rejected(Status status);

  /// Monotonic id (1-based submission order); 0 for a default or
  /// rejected ticket.
  std::uint64_t id() const { return id_; }
  bool valid() const { return id_ != 0; }

  /// Requests cooperative cancellation (see file comment). Idempotent;
  /// racing an almost-finished job is fine — the future then resolves
  /// with the completed result.
  void Cancel();

  /// True once the future is resolved (non-blocking).
  bool done() const;

  /// Blocks until resolution and returns the result (copy; callable from
  /// any thread, any number of times).
  [[nodiscard]] Result<ExplainResult> Wait();

 private:
  friend class ExplainService;
  std::uint64_t id_ = 0;
  std::shared_ptr<CancelSource> cancel_;
  std::shared_future<Result<ExplainResult>> future_;
};

/// Asynchronous multi-table explanation service (see file comment).
class ExplainService {
 public:
  explicit ExplainService(ServiceOptions options = {});

  /// Cancels outstanding work, resolves every future, joins workers.
  ~ExplainService();

  ExplainService(const ExplainService&) = delete;
  ExplainService& operator=(const ExplainService&) = delete;

  /// Enqueues one explanation request against (algorithm, dcs, table)
  /// and returns immediately. The table is shared, not copied; callers
  /// submitting many requests for one table should reuse one
  /// `shared_ptr`. The algorithm must be thread-safe (all bundled
  /// repairers are). Under a full queue the returned ticket may already
  /// be resolved `Status::Rejected` (load-shedding; see file comment).
  Ticket Submit(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
                dc::DcSet dcs, std::shared_ptr<const Table> table,
                ExplainRequest request, RequestOptions options = {})
      EXCLUDES(mu_);

  /// Submit + Wait, for callers that want the service's routing but not
  /// its asynchrony (the session's synchronous explain calls).
  [[nodiscard]] Result<ExplainResult> ExplainSync(
      std::shared_ptr<const repair::RepairAlgorithm> algorithm, dc::DcSet dcs,
      std::shared_ptr<const Table> table, ExplainRequest request,
      RequestOptions options = {});

  /// The engine pool. Exposed for direct engine access (`TRexSession`
  /// uses it for repair diffs); hold the entry's mutex
  /// when service traffic may run concurrently.
  EngineRouter& router() { return router_; }

  /// Safe from any thread, any time — takes only `mu_` (briefly) and
  /// the router's leaf lock, never an engine entry's mutex (see the
  /// lock model in the file comment).
  ServiceStats stats() const EXCLUDES(mu_);

  /// Jobs admitted but not yet started (queued).
  std::size_t pending() const EXCLUDES(mu_);

  const ServiceOptions& options() const { return options_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    int priority = 0;
    std::uint64_t seq = 0;  // FIFO tie-break within a priority
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::shared_ptr<const repair::RepairAlgorithm> algorithm;
    dc::DcSet dcs;
    std::shared_ptr<const Table> table;
    /// Routing identity, computed at admission; the coalescing stage
    /// groups queued jobs by it (then verifies dcs/table in full).
    EngineKey key;
    ExplainRequest request;  // `request.cancel` holds the merged token
    std::shared_ptr<CancelSource> cancel;
    /// Armed with `DeadlineSource` when a deadline is set; fired =
    /// the cancellation was a deadline expiry, not a caller cancel.
    std::shared_ptr<CancelSource> deadline_cancel;
    /// Under `degrade_on_deadline`, the deadline arms this *soften*
    /// source instead of `deadline_cancel`: expiry flips the request's
    /// stopping rule to finish-current-wave, and the job resolves OK
    /// with partial estimates.
    std::shared_ptr<CancelSource> soften_cancel;
    std::uint64_t deadline_id = 0;
    std::function<void(const Result<ExplainResult>&)> on_complete;
    std::promise<Result<ExplainResult>> promise;
  };

  /// Strict total order: best job first — higher priority, then older
  /// (smaller seq; seqs are unique). `begin()` is the next job to run,
  /// `rbegin()` the load-shedding victim.
  struct JobOrder {
    bool operator()(const std::shared_ptr<Job>& a,
                    const std::shared_ptr<Job>& b) const {
      if (a->priority != b->priority) return a->priority > b->priority;
      return a->seq < b->seq;
    }
  };

  /// True when `job` may share `leader`'s engine: equal key, verified
  /// by full DcSet/table comparison (64-bit fingerprints can collide).
  static bool CoalescingCompatible(const Job& job, const Job& leader);

  void WorkerLoop() EXCLUDES(mu_);
  /// Executes one dequeued group: screens members (cancelled/expired
  /// jobs resolve without running), acquires the leader's engine once,
  /// runs one `EnsureRepair` and then one `Explain` per survivor, and
  /// resolves each ticket *per member* (failure isolation — see file
  /// comment). Transient member failures are retried per
  /// `RetryPolicy`, with each attempt gated/reported through the
  /// router's circuit breaker; the backoff park releases the engine
  /// mutex and waits on the retrying members' cancel tokens. Takes the
  /// leader's `EngineEntry::mu` and (briefly, under it) `mu_` — the
  /// one place that fixes the entry-before-service lock order.
  void ServeBatch(std::vector<std::shared_ptr<Job>> jobs) EXCLUDES(mu_);
  /// Resolves the job's future, updates stats, fires the callback, and
  /// forgets the job. A cancelled result counts as a deadline expiry
  /// when `expired` is set or the job's armed deadline source fired.
  /// The future resolution and the callback run *outside* `mu_`.
  void Resolve(const std::shared_ptr<Job>& job, Result<ExplainResult> result,
               bool expired = false) EXCLUDES(mu_);

  ServiceOptions options_;
  EngineRouter router_;
  DeadlineSource deadlines_;

  mutable Mutex mu_;
  CondVar work_cv_;
  /// The admission queue, kept sorted by `JobOrder` so dequeue,
  /// shedding, and coalescing all walk it directly.
  std::set<std::shared_ptr<Job>, JobOrder> queue_ GUARDED_BY(mu_);
  /// Every unresolved job (queued or in-flight), for shutdown
  /// cancellation.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> outstanding_
      GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  ServiceStats stats_ GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
};

}  // namespace trex::serving

#endif  // TREX_SERVING_SERVICE_H_
