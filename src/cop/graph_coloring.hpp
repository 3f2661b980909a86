// Graph coloring as a COP: assign one of k colors to every vertex so that
// no edge is monochromatic.  Listed in paper Table 1 (equality-constrained
// COP); its QUBO encoding uses one-hot vertex/color variables, exercising
// the equality-penalty path of the transformation library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hycim::cop {

/// Undirected graph plus a color budget.
struct ColoringInstance {
  std::string name;
  std::size_t num_vertices = 0;
  std::size_t num_colors = 0;
  std::vector<std::pair<std::size_t, std::size_t>> edges;

  /// Number of QUBO variables in the one-hot encoding (V × k).
  std::size_t num_variables() const { return num_vertices * num_colors; }

  /// Decodes one-hot bits into a color per vertex; a vertex with zero or
  /// multiple hot bits decodes to num_colors (invalid marker).
  std::vector<std::size_t> decode(std::span<const std::uint8_t> x) const;

  /// True iff every vertex has exactly one color and no edge is
  /// monochromatic.
  bool valid_coloring(std::span<const std::uint8_t> x) const;

  /// Number of violated constraints (multi/zero-hot vertices + bad edges).
  std::size_t violations(std::span<const std::uint8_t> x) const;

  /// Throws std::invalid_argument naming the offending field unless a
  /// graph with vertices has num_colors > 0 and every edge joins two
  /// distinct vertices below num_vertices.
  void validate() const;
};

/// Random Erdős–Rényi coloring instance.
ColoringInstance generate_coloring(std::size_t vertices, double p,
                                   std::size_t colors, std::uint64_t seed);

}  // namespace hycim::cop
