// Compile-fail fixture, not a gtest suite: the `discarded_status_rejected`
// ctest compiles it with -Werror=unused-result and passes only when the
// compiler rejects both discards below. Neither function carries a
// per-declaration [[nodiscard]], so the class-level attribute on Status
// and Result (common/status.h) is all that makes a dropped value an
// error. This is the call-site half of status-discipline.

#include "common/status.h"

namespace trex {

Status Flush() { return Status::Ok(); }
Result<int> Parse() { return 1; }

void Tick() {
  Flush();
  Parse();
}

}  // namespace trex
