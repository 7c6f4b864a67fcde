// Synthetic "hospital" dataset generator.
//
// HoloClean's canonical evaluation dataset is the US hospital quality
// table (Provider, Hospital, City, State, Zip, Phone, ...), with FDs such
// as Zip -> City and Zip -> State. The real extract is not shipped here,
// so this module generates a structurally equivalent world: hospitals
// with consistent geography and contact data, plus the matching DC set —
// enough to exercise `HoloCleanRepair` and the cell explainer on a second
// domain (examples/hospital_cleaning.cpp, bench_repair_algorithms).

#ifndef TREX_DATA_HOSPITAL_H_
#define TREX_DATA_HOSPITAL_H_

#include <cstdint>

#include "common/random.h"
#include "data/generator.h"
#include "dc/constraint.h"
#include "table/table.h"

namespace trex::data {

/// Size knobs for the hospital world.
struct HospitalGenOptions {
  std::size_t num_rows = 200;
  std::size_t num_states = 5;
  std::size_t cities_per_state = 4;
  std::size_t zips_per_city = 2;
  std::size_t hospitals_per_city = 3;
  /// Measures reported per hospital row (adds row multiplicity so FD
  /// groups have real support).
  std::size_t num_measures = 6;
  std::uint64_t seed = Rng::kDefaultSeed;
};

/// Schema: (Provider, Hospital, City, State, Zip, Phone, Measure, Score).
Schema HospitalSchema();

/// Generates a consistent hospital-quality table and its DC set:
///   H1: Zip -> City          H2: Zip -> State
///   H3: Provider -> Phone    H4: Provider -> Hospital
///   H5: Hospital, Measure unique score rows (no two different scores for
///       the same provider and measure)
GeneratedData GenerateHospital(const HospitalGenOptions& options = {});

}  // namespace trex::data

#endif  // TREX_DATA_HOSPITAL_H_
