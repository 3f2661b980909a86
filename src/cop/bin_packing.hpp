// Bin packing: assign n items to at most m bins of capacity C, minimizing
// the number of bins used.  The paper cites bin packing (with knapsack) as
// the archetypal inequality-constrained COP; here it demonstrates the
// inequality-QUBO transformation with *multiple* simultaneous inequality
// constraints (one per bin), each mapped to its own inequality-filter array.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hycim::cop {

/// One bin-packing instance.
struct BinPackingInstance {
  std::string name;
  long long bin_capacity = 0;
  std::size_t max_bins = 0;
  std::vector<long long> item_sizes;

  std::size_t num_items() const { return item_sizes.size(); }
  /// Variables in the assignment encoding: x[i*max_bins + b] = item i in bin b.
  std::size_t num_variables() const { return num_items() * max_bins; }

  /// Load of bin b under assignment x.
  long long bin_load(std::span<const std::uint8_t> x, std::size_t b) const;
  /// True iff every item is in exactly one bin and no bin overflows.
  bool valid_assignment(std::span<const std::uint8_t> x) const;
  /// Number of bins with at least one item.
  std::size_t bins_used(std::span<const std::uint8_t> x) const;
  /// Lower bound on bins: ceil(Σ sizes / C).
  std::size_t lower_bound() const;

  /// Throws std::invalid_argument naming the offending field unless
  /// bin_capacity > 0, every item size lies in [0, bin_capacity], and
  /// max_bins holds the first-fit-decreasing packing (the feasible start
  /// the lowering encodes).
  void validate() const;
};

/// First-fit-decreasing heuristic; returns per-item bin indices.  Always a
/// valid assignment (may exceed lower_bound but never bin capacity).
std::vector<std::size_t> first_fit_decreasing(const BinPackingInstance& inst);

/// Random instance with sizes U[1, size_max].  `max_bins` defaults to the
/// first-fit-decreasing bin count (so a valid assignment always exists).
BinPackingInstance generate_bin_packing(std::size_t items, long long capacity,
                                        long long size_max,
                                        std::uint64_t seed);

}  // namespace hycim::cop
