// EngineRouter: instance-keyed reuse, LRU eviction + refetch, and the
// safety of evicted-but-held entries.

#include "serving/router.h"

#include <gtest/gtest.h>

#include <memory>

#include "data/soccer.h"
#include "repair/soccer_algorithm1.h"

namespace trex::serving {
namespace {

std::shared_ptr<const Table> SoccerTable() {
  return std::make_shared<const Table>(data::SoccerDirtyTable());
}

/// A second, distinct table (one extra corruption -> different
/// fingerprint and different repair instance).
std::shared_ptr<const Table> VariantTable() {
  Table dirty = data::SoccerDirtyTable();
  dirty.Set(data::SoccerCell(3, "City"), Value("Madird"));
  return std::make_shared<const Table>(dirty);
}

ExplainRequest ConstraintRequest() {
  ExplainRequest request;
  request.target = data::SoccerTargetCell();
  request.kind = ExplainKind::kConstraints;
  return request;
}

TEST(EngineRouterTest, SameInstanceReusesOneEngine) {
  EngineRouter router;
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table = SoccerTable();
  auto a = router.Acquire(algorithm, data::SoccerConstraints(), table);
  auto b = router.Acquire(algorithm, data::SoccerConstraints(), table);
  EXPECT_EQ(a.get(), b.get());
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(EngineRouterTest, EqualContentInDistinctHandlesRoutesTogether) {
  // Routing keys on *content*, not pointer identity: two snapshots of
  // the same table share one engine (and its reference repair).
  EngineRouter router;
  const auto algorithm = repair::MakeAlgorithm1();
  auto a = router.Acquire(algorithm, data::SoccerConstraints(), SoccerTable());
  auto b = router.Acquire(algorithm, data::SoccerConstraints(), SoccerTable());
  EXPECT_EQ(a.get(), b.get());
}

TEST(EngineRouterTest, DistinctTablesGetDistinctEngines) {
  EngineRouter router;
  const auto algorithm = repair::MakeAlgorithm1();
  auto a = router.Acquire(algorithm, data::SoccerConstraints(), SoccerTable());
  auto b = router.Acquire(algorithm, data::SoccerConstraints(), VariantTable());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(router.stats().resident, 2u);
}

TEST(EngineRouterTest, DistinctConstraintSetsGetDistinctEngines) {
  EngineRouter router;
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table = SoccerTable();
  dc::DcSet reduced = data::SoccerConstraints().Without(0);
  auto a = router.Acquire(algorithm, data::SoccerConstraints(), table);
  auto b = router.Acquire(algorithm, reduced, table);
  EXPECT_NE(a.get(), b.get());
}

TEST(EngineRouterTest, LruEvictionAndRefetch) {
  RouterOptions options;
  options.max_engines = 1;
  EngineRouter router(options);
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table_a = SoccerTable();
  const auto table_b = VariantTable();

  auto a = router.Acquire(algorithm, data::SoccerConstraints(), table_a);
  EXPECT_EQ(router.stats().evictions, 0u);
  // B displaces A (cap 1)...
  auto b = router.Acquire(algorithm, data::SoccerConstraints(), table_b);
  EXPECT_EQ(router.stats().evictions, 1u);
  EXPECT_EQ(router.stats().resident, 1u);
  // ...and refetching A rebuilds a fresh engine (a miss, not a hit).
  auto a2 = router.Acquire(algorithm, data::SoccerConstraints(), table_a);
  EXPECT_NE(a.get(), a2.get());
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(EngineRouterTest, LruPrefersEvictingTheColdestEngine) {
  RouterOptions options;
  options.max_engines = 2;
  EngineRouter router(options);
  const auto algorithm = repair::MakeAlgorithm1();
  const auto table_a = SoccerTable();
  const auto table_b = VariantTable();

  auto a = router.Acquire(algorithm, data::SoccerConstraints(), table_a);
  auto b = router.Acquire(algorithm, data::SoccerConstraints(), table_b);
  // Touch A so B is the LRU victim when C arrives.
  router.Acquire(algorithm, data::SoccerConstraints(), table_a);
  Table third = data::SoccerDirtyTable();
  third.Set(data::SoccerCell(2, "City"), Value("Lodnon"));
  router.Acquire(algorithm, data::SoccerConstraints(),
                 std::make_shared<const Table>(third));
  // A must still be resident: refetching it is a hit.
  const std::size_t hits_before = router.stats().hits;
  auto a2 = router.Acquire(algorithm, data::SoccerConstraints(), table_a);
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(router.stats().hits, hits_before + 1);
}

TEST(EngineRouterTest, EvictedEntryStaysUsableWhileHeld) {
  RouterOptions options;
  options.max_engines = 1;
  EngineRouter router(options);
  const auto algorithm = repair::MakeAlgorithm1();

  auto a = router.Acquire(algorithm, data::SoccerConstraints(), SoccerTable());
  router.Acquire(algorithm, data::SoccerConstraints(), VariantTable());
  ASSERT_EQ(router.stats().evictions, 1u);

  // The evicted engine is alive as long as we hold the entry.
  auto result = a->engine.Explain(ConstraintRequest());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->explanation.has_value());
}

TEST(EngineRouterTest, RouterAppliesEngineOptions) {
  RouterOptions options;
  options.engine_options.num_threads = 3;
  options.engine_options.anytime.max_sweeps = 17;
  EngineRouter router(options);
  auto entry = router.Acquire(repair::MakeAlgorithm1(),
                              data::SoccerConstraints(), SoccerTable());
  EXPECT_EQ(entry->engine.options().num_threads, 3u);
  EXPECT_EQ(entry->engine.options().anytime.max_sweeps, 17u);
}

}  // namespace
}  // namespace trex::serving
