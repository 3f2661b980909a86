// Max-Cut: partition the vertices of a weighted graph to maximize the total
// weight of edges crossing the partition.  The paper lists Max-Cut as the
// canonical COP that maps "seamlessly" to QUBO with no constraints — it
// exercises HyCiM's crossbar/SA path with the inequality filter disabled.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hycim::cop {

/// Weighted undirected edge.
struct Edge {
  std::size_t u = 0;
  std::size_t v = 0;
  double weight = 1.0;
};

/// Weighted undirected graph for Max-Cut.
struct MaxCutInstance {
  std::string name;
  std::size_t num_vertices = 0;
  std::vector<Edge> edges;

  /// Total weight of edges crossing the partition encoded by x (x[i] is the
  /// side of vertex i).
  double cut_value(std::span<const std::uint8_t> x) const;
  /// Validates the edges; throws on out-of-range endpoints, self-loops and
  /// non-finite weights.
  void validate() const;
};

/// Erdős–Rényi random graph with edge probability `p` and weights U[w_lo, w_hi].
MaxCutInstance generate_maxcut(std::size_t vertices, double p,
                               std::uint64_t seed, double w_lo = 1.0,
                               double w_hi = 1.0);

}  // namespace hycim::cop
