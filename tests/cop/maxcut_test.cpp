#include "cop/maxcut.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace hycim::cop {
namespace {

TEST(MaxCut, CutValueOfTriangle) {
  MaxCutInstance g;
  g.num_vertices = 3;
  g.edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  // Any 2-1 split of a triangle cuts exactly 2 edges.
  EXPECT_DOUBLE_EQ(g.cut_value(std::vector<std::uint8_t>{0, 0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(g.cut_value(std::vector<std::uint8_t>{0, 1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(g.cut_value(std::vector<std::uint8_t>{0, 0, 0}), 0.0);
}

TEST(MaxCut, WeightedEdges) {
  MaxCutInstance g;
  g.num_vertices = 2;
  g.edges = {{0, 1, 2.5}};
  EXPECT_DOUBLE_EQ(g.cut_value(std::vector<std::uint8_t>{0, 1}), 2.5);
  EXPECT_DOUBLE_EQ(g.cut_value(std::vector<std::uint8_t>{1, 1}), 0.0);
}

TEST(MaxCut, CutIsSymmetricUnderComplement) {
  const auto g = generate_maxcut(20, 0.4, 7);
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = rng.random_bits(20);
    auto flipped = x;
    for (auto& b : flipped) b ^= 1;
    EXPECT_DOUBLE_EQ(g.cut_value(x), g.cut_value(flipped));
  }
}

TEST(MaxCut, ValidateCatchesBadEdges) {
  MaxCutInstance g;
  g.num_vertices = 2;
  g.edges = {{0, 5, 1.0}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.edges = {{1, 1, 1.0}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.edges = {{0, 1, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.edges = {{0, 1, -std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(MaxCut, GeneratorDeterministicAndSimple) {
  const auto a = generate_maxcut(15, 0.5, 3);
  const auto b = generate_maxcut(15, 0.5, 3);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  EXPECT_NO_THROW(a.validate());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u);
    EXPECT_EQ(a.edges[i].v, b.edges[i].v);
  }
}

TEST(MaxCut, EdgeProbabilityExtremes) {
  EXPECT_TRUE(generate_maxcut(10, 0.0, 1).edges.empty());
  EXPECT_EQ(generate_maxcut(10, 1.0, 1).edges.size(), 45u);
}

}  // namespace
}  // namespace hycim::cop
