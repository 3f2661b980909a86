#include "cop/maxcut.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hycim::cop {

double MaxCutInstance::cut_value(std::span<const std::uint8_t> x) const {
  assert(x.size() == num_vertices);
  double total = 0.0;
  for (const auto& e : edges) {
    if (x[e.u] != x[e.v]) total += e.weight;
  }
  return total;
}

void MaxCutInstance::validate() const {
  double magnitude = 0.0;
  for (const auto& e : edges) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::invalid_argument("MaxCut: edge endpoint out of range");
    }
    if (e.u == e.v) throw std::invalid_argument("MaxCut: self loop");
    if (!std::isfinite(e.weight)) {
      throw std::invalid_argument("MaxCut: non-finite edge weight");
    }
    magnitude += std::abs(e.weight);
  }
  // Finite weights can still overflow the QUBO: the lowering doubles each
  // weight into a coupling, and any energy or local field is bounded by
  // 4·Σ|weight|.
  if (!std::isfinite(4.0 * magnitude)) {
    throw std::invalid_argument(
        "MaxCut: edge weights too large (4 x the sum of |weight| is not "
        "finite, so QUBO energies would overflow)");
  }
}

MaxCutInstance generate_maxcut(std::size_t vertices, double p,
                               std::uint64_t seed, double w_lo, double w_hi) {
  util::Rng rng(seed);
  MaxCutInstance g;
  g.name = "maxcut_" + std::to_string(vertices) + "_s" + std::to_string(seed);
  g.num_vertices = vertices;
  for (std::size_t u = 0; u < vertices; ++u) {
    for (std::size_t v = u + 1; v < vertices; ++v) {
      if (rng.bernoulli(p)) {
        g.edges.push_back({u, v, rng.uniform(w_lo, w_hi)});
      }
    }
  }
  return g;
}

}  // namespace hycim::cop
