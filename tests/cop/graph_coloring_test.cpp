#include "cop/graph_coloring.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hycim::cop {
namespace {

ColoringInstance path3() {
  // Path 0-1-2, 2 colors: alternating coloring is valid.
  ColoringInstance g;
  g.num_vertices = 3;
  g.num_colors = 2;
  g.edges = {{0, 1}, {1, 2}};
  return g;
}

TEST(Coloring, DecodeOneHot) {
  const auto g = path3();
  // v0=c0, v1=c1, v2=c0.
  const std::vector<std::uint8_t> x{1, 0, 0, 1, 1, 0};
  const auto colors = g.decode(x);
  EXPECT_EQ(colors, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(Coloring, DecodeFlagsMultiHot) {
  const auto g = path3();
  const std::vector<std::uint8_t> x{1, 1, 0, 1, 1, 0};
  EXPECT_EQ(g.decode(x)[0], g.num_colors);  // invalid marker
}

TEST(Coloring, DecodeFlagsZeroHot) {
  const auto g = path3();
  const std::vector<std::uint8_t> x{0, 0, 0, 1, 1, 0};
  EXPECT_EQ(g.decode(x)[0], g.num_colors);
}

TEST(Coloring, ValidColoringAccepted) {
  const auto g = path3();
  EXPECT_TRUE(g.valid_coloring(std::vector<std::uint8_t>{1, 0, 0, 1, 1, 0}));
}

TEST(Coloring, MonochromaticEdgeRejected) {
  const auto g = path3();
  EXPECT_FALSE(g.valid_coloring(std::vector<std::uint8_t>{1, 0, 1, 0, 1, 0}));
}

TEST(Coloring, ViolationCounting) {
  const auto g = path3();
  // All vertices color 0: both edges monochromatic -> 2 violations.
  EXPECT_EQ(g.violations(std::vector<std::uint8_t>{1, 0, 1, 0, 1, 0}), 2u);
  // One vertex zero-hot -> 1 violation.
  EXPECT_EQ(g.violations(std::vector<std::uint8_t>{0, 0, 0, 1, 1, 0}), 1u);
}

TEST(Coloring, NumVariables) {
  const auto g = generate_coloring(7, 0.3, 3, 1);
  EXPECT_EQ(g.num_variables(), 21u);
}

// validate() throws std::invalid_argument whose message names the field.
void expect_invalid(const ColoringInstance& g, const std::string& field) {
  try {
    g.validate();
    ADD_FAILURE() << "expected invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ColoringValidate, AcceptsWellFormedInstances) {
  EXPECT_NO_THROW(path3().validate());
  EXPECT_NO_THROW(generate_coloring(10, 0.5, 3, 9).validate());
  EXPECT_NO_THROW(ColoringInstance{}.validate());  // empty graph
}

TEST(ColoringValidate, RejectsEndpointOutOfRange) {
  auto g = path3();
  g.edges.push_back({1, 3});
  expect_invalid(g, "edges[2]");
  expect_invalid(g, "num_vertices");
}

TEST(ColoringValidate, RejectsSelfLoop) {
  auto g = path3();
  g.edges.insert(g.edges.begin(), {2, 2});
  expect_invalid(g, "edges[0]");
}

TEST(ColoringValidate, RejectsZeroColors) {
  auto g = path3();
  g.num_colors = 0;
  expect_invalid(g, "num_colors");
}

TEST(Coloring, GeneratorDeterministic) {
  const auto a = generate_coloring(10, 0.5, 3, 9);
  const auto b = generate_coloring(10, 0.5, 3, 9);
  EXPECT_EQ(a.edges, b.edges);
}

}  // namespace
}  // namespace hycim::cop
