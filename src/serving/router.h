// `serving::EngineRouter`: a bounded, thread-safe pool of `trex::Engine`s
// keyed by repair instance, so one service process serves many tables.
//
// The engine layer amortizes work *within* one (algorithm, DcSet, Table)
// instance; the router extends that across instances. `Acquire` hashes
// the instance into an `EngineKey` (algorithm id, DcSet fingerprint,
// table fingerprint), verifies candidates by full content comparison
// (64-bit fingerprint collisions route to separate entries, never to a
// wrong engine), and returns a shared `EngineEntry` — creating the
// engine on a miss and LRU-evicting beyond `RouterOptions::max_engines`.
//
// Algorithm-id contract: `RepairAlgorithm::name()` is the routing key
// for the algorithm — distinct algorithm *objects* with equal names are
// deliberately routed to one engine (so repeated factory calls share
// work), which requires that equal names imply equal repair semantics.
// Callers running differently-configured instances of one repairer
// class through a shared router must give them distinct names (the
// bundled repairers take the name as a constructor argument).
//
// Eviction drops the router's reference only: requests already holding
// the entry keep a valid engine until they release it, so eviction under
// load is safe. A re-acquired key after eviction rebuilds the engine
// (and re-runs its reference repair) — eviction trades recompute cost
// for bounded residency, exactly like the table memo inside
// `BlackBoxRepair`.
//
// Per-engine serialization: `Engine` is single-caller (see engine.h).
// Callers running engine work concurrently MUST hold `EngineEntry::mu`
// for the duration of each engine call; `ExplainService` does this, and
// `TRexSession` relies on it via the service.
//
// ## Per-engine circuit breaker
//
// The router also owns one circuit breaker per `EngineKey` — the
// self-healing half of the serving layer's failure classification
// (common/status.h: `kUnavailable` is transient, everything else
// permanent). Invariants:
//
//   * Only *transient* outcomes count as failures in the breaker
//     window; permanent errors (bad requests) and successes are both
//     evidence the backend is alive. A backend that never returns
//     `kUnavailable` can never trip its breaker.
//   * CLOSED → OPEN when the windowed transient-failure rate over the
//     last `BreakerOptions::window` outcomes reaches
//     `failure_rate_threshold` (judged only after `min_samples`).
//   * OPEN fails fast: `AdmitKey` (the service's admission check) and
//     `BreakerBeginCall` (the execution gate) return `kUnavailable`
//     without touching the engine until `cooldown` elapses.
//   * After cooldown, the first `BreakerBeginCall` moves the breaker to
//     HALF-OPEN and admits up to `half_open_probes` concurrent probe
//     calls. A probe's transient failure re-opens (fresh cooldown); a
//     probe success closes and resets the window.
//   * Every OK returned by `BreakerBeginCall` must be paired with
//     exactly one `ReportOutcome` — the service's execution loop does
//     this per engine-call attempt (retries report each attempt).
//
// Breaker state lives under the same leaf `mu_` as the pool, so the
// whole state machine is deadlock-free by construction and `stats()`
// can report it without new lock edges.
//
// Lock model (machine-checked under Clang's -Wthread-safety; see
// common/thread_annotations.h): the router's own state is
// `GUARDED_BY(mu_)`, and `mu_` is a leaf lock — no engine or entry
// mutex is ever taken under it. The PR 5 deadlock rule — `stats()` must
// not take entry mutexes, because a stats reader must never wait on an
// engine call in flight — is encoded structurally: the only per-entry
// state `stats()` reads is `EngineEntry::approx_memo_bytes`, an atomic
// deliberately left *outside* `EngineEntry::mu`'s guarded set, and
// `EXCLUDES(mu_)` keeps every public method re-entrancy-clean. The
// analysis cannot quantify over "any entry's mutex", so that half of
// the rule is additionally pinned by a watchdogged regression test
// (tests/serving/stats_deadlock_test.cc).

#ifndef TREX_SERVING_ROUTER_H_
#define TREX_SERVING_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "dc/constraint.h"
#include "repair/algorithm.h"
#include "table/table.h"

namespace trex::serving {

/// Per-engine circuit-breaker tuning (see the breaker invariants in the
/// file comment). Defaults are production-shaped; tests shrink them.
struct BreakerOptions {
  bool enabled = true;
  /// Sliding outcome window per engine key.
  std::size_t window = 16;
  /// Outcomes required in the window before the rate is judged.
  std::size_t min_samples = 8;
  /// Windowed transient-failure rate that trips CLOSED → OPEN.
  double failure_rate_threshold = 0.5;
  /// How long OPEN fails fast before allowing a half-open probe.
  std::chrono::milliseconds cooldown{250};
  /// Concurrent probe calls admitted while HALF-OPEN.
  std::size_t half_open_probes = 1;
};

/// Options for the router.
struct RouterOptions {
  /// Resident-engine cap (>= 1). Each resident engine holds its dirty
  /// table, reference repair, and memo caches, so this bounds the
  /// service's steady-state footprint.
  std::size_t max_engines = 8;
  /// Options applied to every engine the router creates (sweep threads,
  /// anytime defaults).
  EngineOptions engine_options;
  /// Per-engine-key circuit breaker (file comment).
  BreakerOptions breaker;
};

/// Router cost accounting.
struct RouterStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  /// Engines currently resident (<= max_engines).
  std::size_t resident = 0;
  /// Estimated resident memo bytes summed over all resident engines
  /// (`Engine::approx_memo_bytes`) — the service-level view of the
  /// memo footprint.
  std::size_t approx_memo_bytes = 0;
  /// Breaker transitions into the OPEN state (trips and re-trips).
  std::size_t breaker_open = 0;
  /// Probe calls admitted while HALF-OPEN.
  std::size_t breaker_half_open_probes = 0;
  /// Calls fast-failed with `kUnavailable` because a breaker was open
  /// (admission checks and execution gates combined).
  std::size_t breaker_rejected = 0;
};

/// The identity of a repair instance, as the router keys it. The
/// service's coalescing stage also uses it: queued jobs with equal keys
/// (verified by full DcSet/table comparison, since the fingerprints are
/// 64-bit) route to one engine and may run as one coalesced group.
struct EngineKey {
  std::string algorithm_id;
  std::uint64_t dcs_fingerprint = 0;
  std::uint64_t table_fingerprint = 0;

  bool operator==(const EngineKey& other) const {
    return algorithm_id == other.algorithm_id &&
           dcs_fingerprint == other.dcs_fingerprint &&
           table_fingerprint == other.table_fingerprint;
  }
  bool operator!=(const EngineKey& other) const { return !(*this == other); }
};

struct EngineKeyHash {
  std::size_t operator()(const EngineKey& key) const;
};

/// One routed engine plus the mutex that serializes access to it.
struct EngineEntry {
  EngineEntry(std::shared_ptr<const repair::RepairAlgorithm> algorithm,
              dc::DcSet dcs, std::shared_ptr<const Table> table,
              EngineOptions options)
      : engine(std::move(algorithm), std::move(dcs), std::move(table),
               options) {}

  /// Hold `mu` while calling into `engine` whenever other holders may
  /// exist (the engine itself is single-caller). Not `GUARDED_BY(mu)`:
  /// the requirement is conditional — a single-holder phase (a session
  /// before any tickets are submitted, a test owning the only
  /// reference) may call the engine unlocked — which the analysis
  /// cannot express; concurrent phases are TSan-covered instead.
  Engine engine;
  Mutex mu;
  /// `engine.approx_memo_bytes()` as of the last completed engine call,
  /// sampled by the caller *while it still holds `mu`* and read by
  /// `EngineRouter::stats()` without taking `mu` (taking it there would
  /// deadlock against callers that block inside an engine call while a
  /// stats reader waits — e.g. tests gating a repair algorithm).
  /// Deliberately an atomic outside `mu`'s protection — see the lock
  /// model in the file comment.
  std::atomic<std::size_t> approx_memo_bytes{0};
};

/// Bounded LRU pool of engines (see file comment). All methods are
/// thread-safe.
class EngineRouter {
 public:
  explicit EngineRouter(RouterOptions options = {});

  /// The key `Acquire` would route (algorithm, dcs, table) to — handed
  /// back to the service so its coalescing stage can group queued jobs
  /// by engine without acquiring one. Equal keys are necessary but not
  /// sufficient for equal engines (64-bit fingerprints can collide);
  /// callers grouping by key must verify dcs/table in full, as the
  /// router itself does.
  static EngineKey KeyOf(const repair::RepairAlgorithm& algorithm,
                         const dc::DcSet& dcs, const Table& table);

  /// Returns the engine entry serving (algorithm, dcs, table), creating
  /// it on first use. The table is shared, not copied — callers keep one
  /// resident copy per distinct table regardless of request count.
  /// Engine construction is cheap (the reference repair runs lazily at
  /// the first explanation), so `Acquire` never blocks on repair work.
  std::shared_ptr<EngineEntry> Acquire(
      std::shared_ptr<const repair::RepairAlgorithm> algorithm,
      const dc::DcSet& dcs, std::shared_ptr<const Table> table)
      EXCLUDES(mu_);

  /// Like above for callers holding only a mutable/borrowed table (the
  /// session's interactive loop): the table is snapshotted into a
  /// shared copy *only on a miss* — a hit against a resident engine
  /// copies nothing.
  std::shared_ptr<EngineEntry> Acquire(
      std::shared_ptr<const repair::RepairAlgorithm> algorithm,
      const dc::DcSet& dcs, const Table& table) EXCLUDES(mu_);

  /// Like the shared-table overload, with the key already computed
  /// (`KeyOf`) — the service keys each job at admission for coalescing
  /// and hands the key back here, so execution does not re-hash the
  /// table. `key` must be `KeyOf(*algorithm, dcs, *table)`; a stale key
  /// only costs a duplicate engine (full verification still guards
  /// correctness), it can never route to a wrong one.
  std::shared_ptr<EngineEntry> Acquire(
      std::shared_ptr<const repair::RepairAlgorithm> algorithm,
      const dc::DcSet& dcs, std::shared_ptr<const Table> table,
      const EngineKey& key) EXCLUDES(mu_);

  /// Takes only `mu_` and reads only sampled atomics per entry — never
  /// an entry mutex (the deadlock rule in the file comment).
  RouterStats stats() const EXCLUDES(mu_);

  /// Circuit-breaker states (see the invariants in the file comment).
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// Admission-time fast-fail: `kUnavailable` while `key`'s breaker is
  /// OPEN inside its cooldown, OK otherwise. Never admits a probe and
  /// never transitions the state machine — queued work behind a sick
  /// backend is shed here without consuming half-open probe slots.
  [[nodiscard]] Status AdmitKey(const EngineKey& key) EXCLUDES(mu_);

  /// Execution-time gate, called before each engine-call attempt:
  /// CLOSED admits; OPEN past cooldown transitions to HALF-OPEN and
  /// admits a probe; HALF-OPEN admits up to
  /// `BreakerOptions::half_open_probes` concurrent probes; everything
  /// else fails fast with `kUnavailable`. Every OK MUST be paired with
  /// exactly one `ReportOutcome` call.
  [[nodiscard]] Status BreakerBeginCall(const EngineKey& key) EXCLUDES(mu_);

  /// Reports one engine-call attempt admitted by `BreakerBeginCall`.
  /// `transient_failure` means the attempt failed with a transient
  /// status (`Status::IsTransient`); successes and permanent errors
  /// both count as healthy outcomes.
  void ReportOutcome(const EngineKey& key, bool transient_failure)
      EXCLUDES(mu_);

  /// Current breaker state for `key` (kClosed when untracked). An OPEN
  /// breaker past its cooldown still reads OPEN until the next
  /// `BreakerBeginCall` transitions it.
  BreakerState breaker_state(const EngineKey& key) const EXCLUDES(mu_);

  const RouterOptions& options() const { return options_; }

 private:
  struct Slot {
    std::shared_ptr<EngineEntry> entry;
    std::uint64_t last_used = 0;
  };

  /// Per-key breaker state machine (file comment). The outcome window
  /// is a ring of the last `BreakerOptions::window` outcomes.
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::vector<std::uint8_t> ring;  // 1 = transient failure
    std::size_t ring_next = 0;
    std::size_t count = 0;
    std::size_t failures = 0;
    std::chrono::steady_clock::time_point open_until{};
    std::size_t probes_inflight = 0;
  };

  /// Trips `breaker` into OPEN: fresh cooldown, window reset.
  void TripOpen(Breaker* breaker) REQUIRES(mu_);

  /// Drops the least-recently-used slot. Requires a non-empty pool.
  void EvictLru() REQUIRES(mu_);

  /// Shared lookup/insert body; `snapshot` materializes the shared
  /// table handle and is invoked only on a miss.
  std::shared_ptr<EngineEntry> AcquireImpl(
      std::shared_ptr<const repair::RepairAlgorithm> algorithm,
      const dc::DcSet& dcs, const Table& table, const EngineKey& key,
      const std::function<std::shared_ptr<const Table>()>& snapshot)
      EXCLUDES(mu_);

  RouterOptions options_;
  mutable Mutex mu_;
  /// Buckets of verified slots: fingerprint collisions co-exist in one
  /// bucket and are told apart by full (dcs, table) comparison.
  std::unordered_map<EngineKey, std::vector<Slot>, EngineKeyHash> engines_
      GUARDED_BY(mu_);
  /// Breakers outlive engine eviction deliberately: a sick backend that
  /// was evicted must not come back CLOSED just because its engine was
  /// rebuilt.
  std::unordered_map<EngineKey, Breaker, EngineKeyHash> breakers_
      GUARDED_BY(mu_);
  std::uint64_t tick_ GUARDED_BY(mu_) = 0;
  std::size_t resident_ GUARDED_BY(mu_) = 0;
  RouterStats stats_ GUARDED_BY(mu_);
};

}  // namespace trex::serving

#endif  // TREX_SERVING_ROUTER_H_
