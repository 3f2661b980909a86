#include "cop/graph_coloring.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace hycim::cop {

std::vector<std::size_t> ColoringInstance::decode(
    std::span<const std::uint8_t> x) const {
  assert(x.size() == num_variables());
  std::vector<std::size_t> colors(num_vertices, num_colors);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    std::size_t hot = 0;
    std::size_t chosen = num_colors;
    for (std::size_t c = 0; c < num_colors; ++c) {
      if (x[v * num_colors + c]) {
        ++hot;
        chosen = c;
      }
    }
    colors[v] = (hot == 1) ? chosen : num_colors;
  }
  return colors;
}

bool ColoringInstance::valid_coloring(std::span<const std::uint8_t> x) const {
  return violations(x) == 0;
}

std::size_t ColoringInstance::violations(std::span<const std::uint8_t> x) const {
  const auto colors = decode(x);
  std::size_t bad = 0;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    if (colors[v] == num_colors) ++bad;
  }
  for (const auto& [u, v] : edges) {
    if (colors[u] != num_colors && colors[u] == colors[v]) ++bad;
  }
  return bad;
}

void ColoringInstance::validate() const {
  if (num_vertices > 0 && num_colors == 0) {
    throw std::invalid_argument("coloring: num_colors must be > 0");
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const std::string edge = "coloring: edges[" + std::to_string(e) + "] = (" +
                             std::to_string(u) + ", " + std::to_string(v) +
                             ")";
    if (u >= num_vertices || v >= num_vertices) {
      throw std::invalid_argument(edge + " has an endpoint >= num_vertices = " +
                                  std::to_string(num_vertices));
    }
    if (u == v) throw std::invalid_argument(edge + " is a self-loop");
  }
}

ColoringInstance generate_coloring(std::size_t vertices, double p,
                                   std::size_t colors, std::uint64_t seed) {
  util::Rng rng(seed);
  ColoringInstance g;
  g.name = "coloring_" + std::to_string(vertices) + "_k" +
           std::to_string(colors) + "_s" + std::to_string(seed);
  g.num_vertices = vertices;
  g.num_colors = colors;
  for (std::size_t u = 0; u < vertices; ++u) {
    for (std::size_t v = u + 1; v < vertices; ++v) {
      if (rng.bernoulli(p)) g.edges.emplace_back(u, v);
    }
  }
  return g;
}

}  // namespace hycim::cop
