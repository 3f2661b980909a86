#include "cop/bin_packing.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hycim::cop {

long long BinPackingInstance::bin_load(std::span<const std::uint8_t> x,
                                       std::size_t b) const {
  assert(x.size() == num_variables());
  long long load = 0;
  for (std::size_t i = 0; i < num_items(); ++i) {
    if (x[i * max_bins + b]) load += item_sizes[i];
  }
  return load;
}

bool BinPackingInstance::valid_assignment(
    std::span<const std::uint8_t> x) const {
  assert(x.size() == num_variables());
  for (std::size_t i = 0; i < num_items(); ++i) {
    std::size_t hot = 0;
    for (std::size_t b = 0; b < max_bins; ++b) hot += x[i * max_bins + b];
    if (hot != 1) return false;
  }
  for (std::size_t b = 0; b < max_bins; ++b) {
    if (bin_load(x, b) > bin_capacity) return false;
  }
  return true;
}

std::size_t BinPackingInstance::bins_used(
    std::span<const std::uint8_t> x) const {
  std::size_t used = 0;
  for (std::size_t b = 0; b < max_bins; ++b) {
    for (std::size_t i = 0; i < num_items(); ++i) {
      if (x[i * max_bins + b]) {
        ++used;
        break;
      }
    }
  }
  return used;
}

std::size_t BinPackingInstance::lower_bound() const {
  const long long total =
      std::accumulate(item_sizes.begin(), item_sizes.end(), 0LL);
  return static_cast<std::size_t>((total + bin_capacity - 1) / bin_capacity);
}

void BinPackingInstance::validate() const {
  if (bin_capacity <= 0) {
    throw std::invalid_argument("bin packing: bin_capacity must be > 0, got " +
                                std::to_string(bin_capacity));
  }
  for (std::size_t i = 0; i < num_items(); ++i) {
    if (item_sizes[i] < 0 || item_sizes[i] > bin_capacity) {
      throw std::invalid_argument(
          "bin packing: item_sizes[" + std::to_string(i) + "] = " +
          std::to_string(item_sizes[i]) + " is outside [0, bin_capacity = " +
          std::to_string(bin_capacity) + "]");
    }
  }
  const auto ffd = first_fit_decreasing(*this);
  const std::size_t ffd_bins =
      ffd.empty() ? 0 : *std::max_element(ffd.begin(), ffd.end()) + 1;
  if (max_bins < ffd_bins) {
    throw std::invalid_argument(
        "bin packing: max_bins = " + std::to_string(max_bins) +
        " is below the first-fit-decreasing bin count " +
        std::to_string(ffd_bins));
  }
}

std::vector<std::size_t> first_fit_decreasing(const BinPackingInstance& inst) {
  std::vector<std::size_t> order(inst.num_items());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inst.item_sizes[a] > inst.item_sizes[b];
  });
  std::vector<long long> loads;
  std::vector<std::size_t> assignment(inst.num_items(), 0);
  for (std::size_t i : order) {
    bool placed = false;
    for (std::size_t b = 0; b < loads.size(); ++b) {
      if (loads[b] + inst.item_sizes[i] <= inst.bin_capacity) {
        loads[b] += inst.item_sizes[i];
        assignment[i] = b;
        placed = true;
        break;
      }
    }
    if (!placed) {
      loads.push_back(inst.item_sizes[i]);
      assignment[i] = loads.size() - 1;
    }
  }
  return assignment;
}

BinPackingInstance generate_bin_packing(std::size_t items, long long capacity,
                                        long long size_max,
                                        std::uint64_t seed) {
  if (size_max > capacity) {
    throw std::invalid_argument("bin packing: item larger than bin");
  }
  util::Rng rng(seed);
  BinPackingInstance inst;
  inst.name = "bp_" + std::to_string(items) + "_s" + std::to_string(seed);
  inst.bin_capacity = capacity;
  inst.item_sizes.resize(items);
  for (auto& s : inst.item_sizes) s = rng.uniform_int(1, size_max);
  const auto ffd = first_fit_decreasing(inst);
  inst.max_bins = *std::max_element(ffd.begin(), ffd.end()) + 1;
  return inst;
}

}  // namespace hycim::cop
