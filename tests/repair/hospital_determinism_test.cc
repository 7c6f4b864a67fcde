// The backend determinism harness (tests/serving/determinism_check.h) on
// the hospital world: more columns than soccer, and errors (swaps, typos
// and nulls) in every string column. A suite of its own, apart from the
// soccer case in repair_property_test.cc, because holoclean makes it the
// slowest determinism run by far; 30 rows, like the soccer world, keep
// it well inside the per-test timeout under ThreadSanitizer.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/errors.h"
#include "data/hospital.h"
#include "repair/faulty.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"
#include "tests/serving/determinism_check.h"

namespace trex::repair {
namespace {

class HospitalDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HospitalDeterminismTest, DeterministicSeriallyConcurrentlyAndInTheBox) {
  auto generated = data::GenerateHospital({.num_rows = 30, .seed = GetParam()});
  const Schema& schema = generated.clean.schema();
  data::ErrorInjectorOptions inject;
  inject.error_rate = 0.06;
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (schema.attribute(c).type == ValueType::kString) {
      inject.columns.push_back(c);
    }
  }
  inject.seed = GetParam() + 1;
  const Table dirty = data::InjectErrors(generated.clean, inject).dirty;

  // All four backends, and the fault-injecting decorator, which must
  // pass through unchanged while no fault is scheduled.
  const std::vector<std::shared_ptr<const RepairAlgorithm>> algorithms = {
      repair::MakeAlgorithm1(), std::make_shared<HoloCleanRepair>(),
      std::make_shared<HolisticRepair>(), std::make_shared<FdRepair>(),
      std::make_shared<FaultyAlgorithm>(
          "faulty-rule", repair::MakeAlgorithm1(), FaultyOptions{})};
  for (const auto& alg : algorithms) {
    SCOPED_TRACE(alg->name() + " seed " + std::to_string(GetParam()));
    testing::CheckDeterminism(*alg, generated.dcs, dirty, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HospitalDeterminismTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace trex::repair
