#include "serving/session.h"

#include "common/logging.h"

namespace trex {

TRexSession::TRexSession(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm, dc::DcSet dcs,
    Table dirty, EngineOptions engine_options)
    : algorithm_(std::move(algorithm)),
      dcs_(std::move(dcs)),
      dirty_(std::move(dirty)),
      engine_options_(engine_options) {
  TREX_CHECK(algorithm_ != nullptr);
}

TRexSession::TRexSession(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm, dc::DcSet dcs,
    Table dirty, EngineOptions engine_options,
    serving::ServiceOptions service_options)
    : TRexSession(std::move(algorithm), std::move(dcs), std::move(dirty),
                  engine_options) {
  service_options.router.engine_options = engine_options;
  service_options_ = service_options;
}

Status TRexSession::Repair() {
  if (service_ == nullptr) {
    serving::ServiceOptions service_options;
    if (service_options_.has_value()) {
      service_options = *service_options_;
    } else {
      // One worker: the interactive loop issues one query at a time,
      // and parallelism lives inside requests via
      // EngineOptions::num_threads.
      service_options.num_workers = 1;
      // Keep the engine of one previous (table, DcSet) iteration warm
      // so undoing an edit does not re-run its reference repair.
      service_options.router.max_engines = 2;
      service_options.router.engine_options = engine_options_;
    }
    service_ = std::make_unique<serving::ExplainService>(service_options);
  }
  // By-reference Acquire: the router snapshots `dirty_` only when no
  // resident engine matches, so a repeat Repair() (or an undone edit
  // hitting the warm engine) copies nothing.
  std::shared_ptr<serving::EngineEntry> entry =
      service_->router().Acquire(algorithm_, dcs_, dirty_);
  TREX_RETURN_NOT_OK(entry->engine.EnsureRepair());
  TREX_ASSIGN_OR_RETURN(
      repaired_cells_, DiffTables(dirty_, entry->engine.reference_clean()));
  // Alias the routed engine's table: one resident snapshot per
  // instance, shared by engine, box, and session.
  table_ = entry->engine.shared_dirty();
  entry_ = std::move(entry);
  return Status::Ok();
}

const Table& TRexSession::clean() const {
  TREX_CHECK(entry_ != nullptr) << "call Repair() first";
  return entry_->engine.reference_clean();
}

const std::vector<RepairedCell>& TRexSession::repaired_cells() const {
  TREX_CHECK(entry_ != nullptr) << "call Repair() first";
  return repaired_cells_;
}

Engine& TRexSession::engine() {
  TREX_CHECK(entry_ != nullptr) << "call Repair() first";
  return entry_->engine;
}

serving::ExplainService& TRexSession::service() {
  TREX_CHECK(service_ != nullptr) << "call Repair() first";
  return *service_;
}

serving::ServiceStats TRexSession::service_stats() const {
  return service_ != nullptr ? service_->stats() : serving::ServiceStats{};
}

Result<CellRef> TRexSession::CellAt(std::size_t row,
                                    const std::string& attribute) const {
  if (row >= dirty_.num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " outside the table");
  }
  TREX_ASSIGN_OR_RETURN(std::size_t col, dirty_.ColumnIndex(attribute));
  return CellRef{row, col};
}

Status TRexSession::RequireRepair() const {
  if (entry_ == nullptr) {
    return Status::InvalidArgument(
        "no repair available: call Repair() after constructing or "
        "editing the session");
  }
  return Status::Ok();
}

void TRexSession::InvalidateRepair() {
  // In-flight async tickets keep their engine alive through the entry's
  // shared_ptr; the session just stops routing new queries to it.
  entry_.reset();
  table_.reset();
  repaired_cells_.clear();
}

Result<Explanation> TRexSession::ExplainConstraints(
    CellRef target, const ConstraintOptions& options) const {
  TREX_RETURN_NOT_OK(RequireRepair());
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  request.constraints = options;
  // Submit-and-wait through the service: same engine, same results as a
  // direct call, but shared queueing/accounting with async traffic.
  TREX_ASSIGN_OR_RETURN(
      ExplainResult result,
      service_->ExplainSync(algorithm_, dcs_, table_, std::move(request)));
  return std::move(*result.explanation);
}

Result<std::vector<InteractionScore>>
TRexSession::ExplainConstraintInteractions(
    CellRef target, const ConstraintOptions& options) const {
  TREX_RETURN_NOT_OK(RequireRepair());
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kInteractions;
  request.constraints = options;
  TREX_ASSIGN_OR_RETURN(
      ExplainResult result,
      service_->ExplainSync(algorithm_, dcs_, table_, std::move(request)));
  return std::move(result.interactions);
}

Result<Explanation> TRexSession::ExplainCells(
    CellRef target, const CellOptions& options) const {
  TREX_RETURN_NOT_OK(RequireRepair());
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kCells;
  request.cells = options;
  TREX_ASSIGN_OR_RETURN(
      ExplainResult result,
      service_->ExplainSync(algorithm_, dcs_, table_, std::move(request)));
  return std::move(*result.explanation);
}

Result<PlayerScore> TRexSession::ExplainSingleCell(
    CellRef target, CellRef player_cell,
    const CellOptions& options) const {
  TREX_RETURN_NOT_OK(RequireRepair());
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kSingleCell;
  request.cells = options;
  request.single_cell = player_cell;
  TREX_ASSIGN_OR_RETURN(
      ExplainResult result,
      service_->ExplainSync(algorithm_, dcs_, table_, std::move(request)));
  return std::move(*result.single_cell);
}

serving::Ticket TRexSession::SubmitExplain(ExplainRequest request,
                                           serving::RequestOptions options) {
  if (Status status = RequireRepair(); !status.ok()) {
    // Fail like the synchronous paths do — a resolved error ticket, not
    // a crash on Wait().
    return serving::Ticket::Rejected(std::move(status));
  }
  return service_->Submit(algorithm_, dcs_, table_, std::move(request),
                          std::move(options));
}

Status TRexSession::SetDirtyCell(CellRef cell, Value value) {
  if (cell.row >= dirty_.num_rows() || cell.col >= dirty_.num_columns()) {
    return Status::OutOfRange("cell " + cell.ToString() +
                              " outside the table");
  }
  TREX_RETURN_NOT_OK(dirty_.CheckValue(cell.col, value));
  dirty_.Set(cell, std::move(value));
  InvalidateRepair();
  return Status::Ok();
}

Status TRexSession::RemoveConstraint(const std::string& name) {
  TREX_ASSIGN_OR_RETURN(std::size_t index, dcs_.IndexOf(name));
  dcs_ = dcs_.Without(index);
  InvalidateRepair();
  return Status::Ok();
}

Status TRexSession::AddConstraint(dc::DenialConstraint constraint) {
  if (dcs_.IndexOf(constraint.name()).ok()) {
    return Status::AlreadyExists("constraint '" + constraint.name() +
                                 "' already present");
  }
  dcs_.Add(std::move(constraint));
  InvalidateRepair();
  return Status::Ok();
}

Status TRexSession::ReplaceConstraint(dc::DenialConstraint constraint) {
  TREX_ASSIGN_OR_RETURN(std::size_t index,
                        dcs_.IndexOf(constraint.name()));
  dc::DcSet updated;
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    updated.Add(i == index ? constraint : dcs_.at(i));
  }
  dcs_ = std::move(updated);
  InvalidateRepair();
  return Status::Ok();
}

}  // namespace trex
