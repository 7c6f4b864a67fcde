#include "dc/graph.h"

#include <gtest/gtest.h>

#include "dc/parser.h"

namespace trex::dc {
namespace {

Schema SoccerSchema() {
  return Schema({Attribute{"Team", ValueType::kString},
                 Attribute{"City", ValueType::kString},
                 Attribute{"Country", ValueType::kString},
                 Attribute{"League", ValueType::kString},
                 Attribute{"Year", ValueType::kInt},
                 Attribute{"Place", ValueType::kInt}});
}

TEST(AttributeGraphTest, SelfReachability) {
  AttributeGraph g(3);
  EXPECT_EQ(g.InfluencingColumns(1), (std::set<std::size_t>{1}));
}

TEST(AttributeGraphTest, DirectEdge) {
  AttributeGraph g(3);
  g.AddInfluence(0, 1);
  EXPECT_EQ(g.InfluencingColumns(1), (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(g.InfluencingColumns(0), (std::set<std::size_t>{0}));
}

TEST(AttributeGraphTest, TransitiveClosure) {
  AttributeGraph g(4);
  g.AddInfluence(0, 1);
  g.AddInfluence(1, 2);
  EXPECT_EQ(g.InfluencingColumns(2), (std::set<std::size_t>{0, 1, 2}));
  // 3 is isolated.
  EXPECT_EQ(g.InfluencingColumns(3), (std::set<std::size_t>{3}));
}

TEST(AttributeGraphTest, CyclesTerminate) {
  AttributeGraph g(2);
  g.AddInfluence(0, 1);
  g.AddInfluence(1, 0);
  EXPECT_EQ(g.InfluencingColumns(0), (std::set<std::size_t>{0, 1}));
}

TEST(AttributeGraphTest, ConservativeFromDcSet) {
  const Schema schema = SoccerSchema();
  auto dcs = ParseDcSet(R"(
!(t1.Team == t2.Team & t1.City != t2.City)
!(t1.League == t2.League & t1.Country != t2.Country)
)",
                        schema);
  ASSERT_TRUE(dcs.ok());
  const AttributeGraph g = AttributeGraph::FromDcSet(*dcs, schema.size());
  // Team <-> City bidirectional, League <-> Country bidirectional; the
  // two components are disconnected.
  EXPECT_EQ(g.InfluencingColumns(1), (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(g.InfluencingColumns(2), (std::set<std::size_t>{2, 3}));
  EXPECT_EQ(g.InfluencingColumns(4), (std::set<std::size_t>{4}));
}

TEST(RelevantCellsTest, AllRowsOfInfluencingColumns) {
  const Schema schema = SoccerSchema();
  Table t(schema);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("a"), Value("b"), Value("c"),
                             Value("d"), Value(1), Value(2)})
                    .ok());
  }
  AttributeGraph g(schema.size());
  g.AddInfluence(1, 2);  // City -> Country
  const auto cells = RelevantCells(t, g, CellRef{0, 2});
  // Columns {1, 2} x 3 rows = 6 cells.
  ASSERT_EQ(cells.size(), 6u);
  for (const CellRef& cell : cells) {
    EXPECT_TRUE(cell.col == 1 || cell.col == 2);
  }
}

TEST(RelevantCellsTest, TargetAlwaysIncluded) {
  const Schema schema = SoccerSchema();
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value("b"), Value("c"), Value("d"),
                           Value(1), Value(2)})
                  .ok());
  AttributeGraph g(schema.size());
  const CellRef target{0, 5};
  const auto cells = RelevantCells(t, g, target);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], target);
}

TEST(AttributeGraphDeathTest, OutOfRangeColumn) {
  AttributeGraph g(2);
  EXPECT_DEATH(g.AddInfluence(0, 2), "Check failed");
  EXPECT_DEATH(g.InfluencingColumns(5), "Check failed");
}

}  // namespace
}  // namespace trex::dc
