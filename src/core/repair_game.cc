#include "core/repair_game.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "common/logging.h"
#include "table/diff.h"

namespace trex {
namespace {

/// The per-thread evaluation scratch: one resident dirty-table copy per
/// thread, owned by whichever box evaluated last on this thread
/// (`owner` is the box's globally unique scratch id). Switching boxes
/// re-copies; staying on one box resets in O(#previous writes). When the
/// owner's algorithm opens a `RepairSession`, the scratch keeps it bound
/// to `table` and every write goes through it.
///
/// Retention trade-off: the copy outlives the owning box (thread-locals
/// cannot be reclaimed from another thread, e.g. when the router evicts
/// an engine) and is not part of `approx_memo_bytes` — a deliberate,
/// bounded cost of one dirty-table copy per evaluating thread, the same
/// order as the shared dirty table itself and reused in place by the
/// next box the thread serves. The session's probe indices and counters
/// are retained per thread the same way (a few per-row arrays per rule),
/// and are not in `approx_memo_bytes` either.
struct EvalScratch {
  std::uint64_t owner = 0;
  Table table;
  /// Bound to `table` (declared after it, so destroyed first); null for
  /// black boxes. References nothing but `table` (see
  /// repair::RepairSession), so it may outlive the box that opened it.
  std::unique_ptr<repair::RepairSession> session;
  /// Cells of `table` currently differing from the owner's dirty table.
  std::vector<CellRef> touched;
  /// Per-linear-index scratch marks (all zero between calls), used to
  /// intersect the previous and next write sets so consecutive
  /// evaluations reset/apply only what actually changed.
  std::vector<std::uint8_t> mark;
  /// Reused buffers of a session repair: its undo log, the cells it or
  /// the input wrote, and those plus the box's `static_diff_`.
  std::vector<CodeWrite> undo;
  std::vector<std::uint32_t> moved;
  std::vector<std::uint32_t> candidates;

  /// Writes one cell, through the session when there is one. Codes are
  /// `ExactlyEqual` values, so a write that keeps the cell's code is
  /// skipped: its bytes are already resident.
  void Set(CellRef cell, const Value& value) {
    const std::uint32_t code = table.Intern(value);
    if (table.code(cell) == code) return;
    if (session != nullptr) {
      session->SetCode(cell, code);
    } else {
      table.SetCode(cell, code);
    }
  }
};

EvalScratch& ThreadEvalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

std::uint64_t NextScratchId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

/// One write of a lookup's canonical write set, by reference: lookups
/// compare against stored entries without copying values.
struct WriteRef {
  std::uint32_t index;  // linear cell index
  const Value* value;
};

/// Per column A, the constraints that are dummy players for every target
/// in A (see the repair_game.h file comment): constraint c is a dummy
/// when no column its single-constraint influence graph writes can reach
/// A in the full graph. Empty when the algorithm exposes no influence
/// graph (black boxes), so no canonicalization applies.
std::vector<std::uint64_t> DummyConstraintMasks(
    const repair::RepairAlgorithm& algorithm, const dc::DcSet& dcs,
    const Schema& schema) {
  const std::optional<dc::AttributeGraph> full =
      algorithm.InfluenceGraph(dcs, schema);
  if (!full.has_value() || full->num_columns() != schema.size()) return {};
  // The columns each constraint's presence may write.
  std::vector<std::vector<std::size_t>> written(dcs.size());
  for (std::size_t c = 0; c < dcs.size(); ++c) {
    const std::optional<dc::AttributeGraph> single =
        algorithm.InfluenceGraph(dcs.Subset(std::uint64_t{1} << c), schema);
    if (!single.has_value()) return {};
    for (std::size_t col = 0; col < single->num_columns(); ++col) {
      if (!single->Influencers(col).empty()) written[c].push_back(col);
    }
  }
  std::vector<std::uint64_t> masks(full->num_columns(), 0);
  for (std::size_t target_col = 0; target_col < masks.size(); ++target_col) {
    const std::set<std::size_t> reach = full->InfluencingColumns(target_col);
    for (std::size_t c = 0; c < dcs.size(); ++c) {
      const bool reaches = std::any_of(
          written[c].begin(), written[c].end(),
          [&](std::size_t col) { return reach.count(col) > 0; });
      if (!reaches) masks[target_col] |= std::uint64_t{1} << c;
    }
  }
  return masks;
}

}  // namespace

BlackBoxRepair::CacheState::CacheState() : scratch_id(NextScratchId()) {}

Result<BlackBoxRepair> BlackBoxRepair::MakeMultiTarget(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
    const std::vector<CellRef>& targets) {
  return MakeMultiTarget(algorithm, std::move(dcs),
                         std::make_shared<const Table>(std::move(dirty)),
                         targets);
}

Result<BlackBoxRepair> BlackBoxRepair::MakeMultiTarget(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs,
    std::shared_ptr<const Table> dirty, const std::vector<CellRef>& targets) {
  if (algorithm == nullptr) {
    return Status::InvalidArgument("algorithm must not be null");
  }
  if (dirty == nullptr) {
    return Status::InvalidArgument("dirty table must not be null");
  }
  if (dirty->num_cells() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("tables past 2^32 cells are not supported");
  }
  for (const CellRef& target : targets) {
    if (target.row >= dirty->num_rows() ||
        target.col >= dirty->num_columns()) {
      return Status::OutOfRange("target cell " + target.ToString() +
                                " outside the table");
    }
  }
  BlackBoxRepair box;
  box.algorithm_ = algorithm;
  box.dcs_ = std::move(dcs);
  box.dirty_ = std::move(dirty);
  box.state_ = std::make_unique<CacheState>();
  TREX_ASSIGN_OR_RETURN(box.clean_,
                        algorithm->Repair(box.dcs_, *box.dirty_));
  if (box.clean_.schema() != box.dirty_->schema() ||
      box.clean_.num_rows() != box.dirty_->num_rows()) {
    return Status::Internal("reference repair changed the table's shape");
  }
  box.state_->calls.store(1);
  for (std::uint32_t i = 0; i < box.dirty_->num_cells(); ++i) {
    if (!CellRepairedTo(*box.dirty_, box.clean_,
                        box.dirty_->FromLinearIndex(i))) {
      box.static_diff_.push_back(i);
    }
  }
  if (box.dcs_.size() <= kMaxMaskConstraints) {
    box.column_dummy_masks_ =
        DummyConstraintMasks(*algorithm, box.dcs_, box.dirty_->schema());
    // The grand coalition is the reference repair itself: its entry's
    // diff against T^c is empty by definition.
    const std::uint64_t full_mask =
        box.dcs_.size() == kMaxMaskConstraints
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << box.dcs_.size()) - 1;
    WriterLock lock(box.state_->mu);
    CacheEntry& entry = box.state_->mask_cache[full_mask];
    entry.request_id = kReferenceRequest;
    box.state_->approx_bytes.fetch_add(EntryPayloadBytes(entry));
  }
  for (const CellRef& target : targets) {
    auto added = box.AddTarget(target);
    TREX_CHECK(added.ok());  // bounds were validated above
  }
  return box;
}

Result<BlackBoxRepair> BlackBoxRepair::Make(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
    CellRef target) {
  return MakeMultiTarget(algorithm, std::move(dcs), std::move(dirty),
                         {target});
}

Result<std::size_t> BlackBoxRepair::AddTarget(CellRef target) {
  if (target.row >= dirty_->num_rows() ||
      target.col >= dirty_->num_columns()) {
    return Status::OutOfRange("target cell " + target.ToString() +
                              " outside the table");
  }
  if (std::optional<std::size_t> existing = FindTarget(target)) {
    return *existing;
  }
  targets_.push_back(
      TargetInfo{target,
                 static_cast<std::uint32_t>(dirty_->LinearIndex(target)),
                 !CellRepairedTo(*dirty_, clean_, target),
                 column_dummy_masks_.empty()
                     ? 0
                     : column_dummy_masks_[target.col]});
  target_index_.emplace(target, targets_.size() - 1);
  return targets_.size() - 1;
}

std::optional<std::size_t> BlackBoxRepair::FindTarget(CellRef target) const {
  auto it = target_index_.find(target);
  if (it == target_index_.end()) return std::nullopt;
  return it->second;
}

CellRef BlackBoxRepair::target(std::size_t index) const {
  TREX_CHECK_LT(index, targets_.size());
  return targets_[index].cell;
}

bool BlackBoxRepair::target_was_repaired(std::size_t index) const {
  TREX_CHECK_LT(index, targets_.size());
  return targets_[index].was_repaired;
}

std::uint64_t BlackBoxRepair::dummy_constraints(std::size_t index) const {
  TREX_CHECK_LT(index, targets_.size());
  return targets_[index].dummy_constraints;
}

std::size_t BlackBoxRepair::num_algorithm_calls() const {
  return state_->calls.load();
}

std::size_t BlackBoxRepair::num_cache_hits() const {
  return state_->hits.load();
}

std::size_t BlackBoxRepair::num_cross_request_hits() const {
  return state_->cross_request_hits.load();
}

std::size_t BlackBoxRepair::num_table_memo_entries() const {
  ReaderLock lock(state_->mu);
  return state_->table_entries;
}

std::size_t BlackBoxRepair::num_eval_table_copies() const {
  return state_->eval_table_copies.load();
}

std::size_t BlackBoxRepair::approx_memo_bytes() const {
  return state_->approx_bytes.load();
}

void BlackBoxRepair::BeginRequest(std::size_t request_id) const {
  state_->current_request.store(request_id);
  MutexLock lock(state_->error_mu);
  state_->eval_error = Status::Ok();
  state_->eval_abort = CancelSource();
}

CancelToken BlackBoxRepair::eval_abort_token() const {
  MutexLock lock(state_->error_mu);
  return state_->eval_abort.token();
}

Status BlackBoxRepair::eval_error() const {
  MutexLock lock(state_->error_mu);
  return state_->eval_error;
}

void BlackBoxRepair::RecordEvalError(const Status& status) const {
  CancelSource abort;
  {
    MutexLock lock(state_->error_mu);
    if (state_->eval_error.ok()) state_->eval_error = status;
    abort = state_->eval_abort;
  }
  // Fire outside the leaf lock: Cancel wakes waiters (e.g. a service
  // backoff parked on a merged token).
  abort.Cancel();
}

void BlackBoxRepair::CountHit(const CacheEntry& entry) const {
  state_->hits.fetch_add(1);
  if (entry.request_id != kReferenceRequest &&
      entry.request_id != state_->current_request.load()) {
    state_->cross_request_hits.fetch_add(1);
  }
}

bool BlackBoxRepair::Outcome(const std::vector<std::uint32_t>& diff,
                             std::size_t target_index) const {
  TREX_CHECK_LT(target_index, targets_.size());
  return !std::binary_search(diff.begin(), diff.end(),
                             targets_[target_index].index);
}

Result<std::vector<std::uint32_t>> BlackBoxRepair::DiffAgainstClean(
    const Table& repaired) const {
  if (repaired.schema() != clean_.schema() ||
      repaired.num_rows() != clean_.num_rows()) {
    return Status::Internal("repair output changed the table's shape");
  }
  std::vector<std::uint32_t> diff;
  std::uint32_t index = 0;  // linear index of CellRef{r, c}
  for (std::size_t r = 0; r < clean_.num_rows(); ++r) {
    for (std::size_t c = 0; c < clean_.num_columns(); ++c, ++index) {
      if (!CellRepairedTo(repaired, clean_, CellRef{r, c})) {
        diff.push_back(index);
      }
    }
  }
  diff.shrink_to_fit();
  return diff;
}

std::size_t BlackBoxRepair::EntryPayloadBytes(const CacheEntry& entry) {
  std::size_t bytes = sizeof(CacheEntry) +
                      entry.writes.capacity() * sizeof(MemoWrite) +
                      entry.diff.capacity() * sizeof(std::uint32_t);
  for (const MemoWrite& write : entry.writes) {
    if (write.value.is_string()) bytes += write.value.as_string().capacity();
  }
  return bytes;
}

bool BlackBoxRepair::EvalConstraintSubset(std::uint64_t mask,
                                          std::size_t target_index) const {
  TREX_CHECK_LE(dcs_.size(), kMaxMaskConstraints)
      << "constraint subset masks support at most 64 constraints; "
      << "split the DcSet or extend the mask representation";
  TREX_CHECK_LT(target_index, targets_.size());
  // Canonical key: holding the target's dummy constraints present
  // leaves its outcome unchanged, so every mask that differs only in
  // them shares one entry (see file comment).
  mask |= targets_[target_index].dummy_constraints;
  if (cache_enabled_) {
    ReaderLock lock(state_->mu);
    auto it = state_->mask_cache.find(mask);
    if (it != state_->mask_cache.end()) {
      CountHit(it->second);
      return Outcome(it->second.diff, target_index);
    }
  }
  const dc::DcSet subset = dcs_.Subset(mask);
  auto diff = [&]() -> Result<std::vector<std::uint32_t>> {
    TREX_FAULT_INJECT("repair.eval_constraint_miss");
    TREX_ASSIGN_OR_RETURN(Table repaired, algorithm_->Repair(subset, *dirty_));
    return DiffAgainstClean(repaired);
  }();
  if (!diff.ok()) {
    // Failure channel, not a crash: record + abort, cache nothing (the
    // memo must never hold an entry a failed repair touched), and let
    // the sweep stop at its next cancel poll.
    RecordEvalError(diff.status().WithPrefix("constraint-subset repair"));
    return false;
  }
  state_->calls.fetch_add(1);
  const bool outcome = Outcome(*diff, target_index);
  if (cache_enabled_) {
    WriterLock lock(state_->mu);
    // A concurrent miss may have filled this mask meanwhile; keep it.
    auto [it, inserted] = state_->mask_cache.try_emplace(mask);
    if (inserted) {
      it->second.diff = std::move(*diff);
      it->second.request_id = state_->current_request.load();
      state_->approx_bytes.fetch_add(EntryPayloadBytes(it->second));
    }
  }
  return outcome;
}

void BlackBoxRepair::MaterializeScratch(
    std::span<const CellWrite> writes) const {
  EvalScratch& scratch = ThreadEvalScratch();
  if (scratch.owner != state_->scratch_id) {
    // First evaluation of this box on this thread (or the thread last
    // served another box, or a session repair failed): pay one full
    // copy, then amortize it across every subsequent miss. The old
    // session is bound to the old content, so it goes first.
    scratch.session.reset();
    scratch.table = *dirty_;
    scratch.touched.clear();
    scratch.mark.assign(dirty_->num_cells(), 0);
    scratch.session = algorithm_->OpenSession(dcs_, &scratch.table);
    scratch.owner = state_->scratch_id;
    state_->eval_table_copies.fetch_add(1);
  }
  // Reset-from-dirty intersected with the new write set: undo only the
  // previously-written cells not written again, and apply only writes
  // whose value actually changes — consecutive coalition evaluations
  // differ by one write, so this is O(changed), not O(write set).
  for (const CellWrite& write : writes) {
    scratch.mark[dirty_->LinearIndex(write.cell)] = 1;
  }
  for (const CellRef& cell : scratch.touched) {
    if (!scratch.mark[dirty_->LinearIndex(cell)]) {
      scratch.Set(cell, dirty_->at(cell));
    }
  }
  scratch.touched.clear();
  for (const CellWrite& write : writes) {
    scratch.Set(write.cell, write.value);
    scratch.touched.push_back(write.cell);
    scratch.mark[dirty_->LinearIndex(write.cell)] = 0;  // leave all-zero
  }
}

Result<std::vector<std::uint32_t>> BlackBoxRepair::RepairScratch(
    std::span<const CellWrite> writes) const {
  EvalScratch& scratch = ThreadEvalScratch();
  if (scratch.session == nullptr) {
    TREX_ASSIGN_OR_RETURN(Table repaired,
                          algorithm_->Repair(dcs_, scratch.table));
    return DiffAgainstClean(repaired);
  }
  scratch.undo.clear();
  if (Status status = scratch.session->RepairCodes(&scratch.undo);
      !status.ok()) {
    // The scratch may be partly repaired: re-copy on the next miss.
    scratch.owner = 0;
    return status;
  }
  // Only the input's writes and the repair's own writes can hold
  // anything but their T^d value, so every other cell fails
  // `CellRepairedTo` exactly when it is in `static_diff_`.
  scratch.moved.clear();
  for (const CellWrite& write : writes) {
    scratch.moved.push_back(
        static_cast<std::uint32_t>(dirty_->LinearIndex(write.cell)));
  }
  for (const CodeWrite& write : scratch.undo) {
    scratch.moved.push_back(
        static_cast<std::uint32_t>(dirty_->LinearIndex(write.cell)));
  }
  std::sort(scratch.moved.begin(), scratch.moved.end());
  scratch.moved.erase(std::unique(scratch.moved.begin(), scratch.moved.end()),
                      scratch.moved.end());
  scratch.candidates.clear();
  std::set_union(static_diff_.begin(), static_diff_.end(),
                 scratch.moved.begin(), scratch.moved.end(),
                 std::back_inserter(scratch.candidates));
  std::vector<std::uint32_t> diff;
  for (const std::uint32_t index : scratch.candidates) {
    if (!CellRepairedTo(scratch.table, clean_,
                        dirty_->FromLinearIndex(index))) {
      diff.push_back(index);
    }
  }
  // Back to dirty+writes, through the session so it stays in step.
  for (auto it = scratch.undo.rbegin(); it != scratch.undo.rend(); ++it) {
    scratch.session->SetCode(it->cell, it->code);
  }
  diff.shrink_to_fit();  // as DiffAgainstClean: memo bytes read capacity
  return diff;
}

bool BlackBoxRepair::EvalPerturbation(std::span<const CellWrite> writes,
                                      std::size_t target_index) const {
  TREX_CHECK_LT(target_index, targets_.size());
  // The input's canonical write set: writes that change a cell's bytes,
  // sorted by linear index. Two inputs are equal iff these are.
  thread_local std::vector<WriteRef> canonical;
  canonical.clear();
  for (const CellWrite& write : writes) {
    if (!ExactlyEqual(dirty_->at(write.cell), write.value)) {
      canonical.push_back(
          {static_cast<std::uint32_t>(dirty_->LinearIndex(write.cell)),
           &write.value});
    }
  }
  if (canonical.empty() && cache_enabled_) {
    // The input is T^d, whose repair is the reference repair T^c: its
    // diff is empty. Like the mask memo's grand-coalition seed, this is
    // a hit but never a cross-request one, and it stores nothing.
    state_->hits.fetch_add(1);
    return Outcome({}, target_index);
  }
  // The cell game and the engine's sweeps pass their writes in
  // linear-index order already.
  const auto by_index = [](const WriteRef& a, const WriteRef& b) {
    return a.index < b.index;
  };
  if (!std::is_sorted(canonical.begin(), canonical.end(), by_index)) {
    std::sort(canonical.begin(), canonical.end(), by_index);
  }
  // The bucket key. `Value::Hash` follows `operator==` (7 and 7.0, +0.0
  // and -0.0 hash alike), so distinct inputs may share a bucket: a hit
  // needs the exact write set, compared with `ExactlyEqual`, and a
  // collision falls through to a fresh repair run instead of another
  // input's outcome.
  std::uint64_t key = 0;
  for (const WriteRef& write : canonical) {
    key = HashCombine(HashCombine(key, write.index), write.value->Hash());
  }
  const auto same_input = [&](const CacheEntry& entry) {
    if (entry.writes.size() != canonical.size()) return false;
    for (std::size_t i = 0; i < canonical.size(); ++i) {
      if (entry.writes[i].index != canonical[i].index ||
          !ExactlyEqual(entry.writes[i].value, *canonical[i].value)) {
        return false;
      }
    }
    return true;
  };
  if (cache_enabled_) {
    ReaderLock lock(state_->mu);
    auto it = state_->table_cache.find(key);
    if (it != state_->table_cache.end()) {
      for (const CacheEntry& entry : it->second) {
        if (!same_input(entry)) continue;
        CountHit(entry);
        return Outcome(entry.diff, target_index);
      }
    }
  }

  // Only a miss materializes, into the per-thread scratch.
  MaterializeScratch(writes);
  auto diff = [&]() -> Result<std::vector<std::uint32_t>> {
    TREX_FAULT_INJECT("repair.eval_table_miss");
    return RepairScratch(writes);
  }();
  if (!diff.ok()) {
    // See EvalConstraintSubset: record + abort, and return before any
    // cache write so no CacheEntry is poisoned.
    RecordEvalError(diff.status().WithPrefix("perturbed-table repair"));
    return false;
  }
  state_->calls.fetch_add(1);
  const bool outcome = Outcome(*diff, target_index);
  if (!cache_enabled_) return outcome;
  WriterLock lock(state_->mu);
  std::vector<CacheEntry>& bucket = state_->table_cache[key];
  // Re-check under the exclusive lock: a concurrent miss on the same
  // input may have inserted while we ran the repair — don't retain a
  // duplicate entry.
  for (const CacheEntry& entry : bucket) {
    if (same_input(entry)) return outcome;
  }
  CacheEntry entry;
  entry.writes.reserve(canonical.size());
  for (const WriteRef& write : canonical) {
    entry.writes.push_back({write.index, *write.value});
  }
  entry.diff = std::move(*diff);
  entry.request_id = state_->current_request.load();
  state_->approx_bytes.fetch_add(EntryPayloadBytes(entry));
  bucket.push_back(std::move(entry));
  ++state_->table_entries;
  return outcome;
}

double ConstraintGame::Value(const shap::Coalition& coalition) const {
  TREX_CHECK_EQ(coalition.size(), num_players());
  // Guard before building the mask: shifting past bit 63 below would be
  // undefined behavior, silently corrupting the subset on wrap.
  TREX_CHECK_LE(coalition.size(), BlackBoxRepair::kMaxMaskConstraints)
      << "constraint games support at most 64 constraints";
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < coalition.size(); ++i) {
    if (coalition[i]) mask |= std::uint64_t{1} << i;
  }
  return box_->EvalConstraintSubset(mask, target_index_) ? 1.0 : 0.0;
}

double CellGame::Value(const shap::Coalition& coalition) const {
  TREX_CHECK_EQ(coalition.size(), players_.size());
  // Absent players become a write set over the dirty table; the
  // perturbed table is only materialized on a memo miss (then into the
  // per-thread scratch, never a fresh copy per coalition).
  thread_local std::vector<CellWrite> writes;
  writes.clear();
  for (std::size_t i = 0; i < players_.size(); ++i) {
    if (!coalition[i]) writes.push_back({players_[i], Value::Null()});
  }
  return box_->EvalPerturbation(writes, target_index_) ? 1.0 : 0.0;
}

}  // namespace trex
