// Order-statistics sampler over the bits of a configuration.
//
// The SA swap neighborhood needs "a uniformly random selected bit and a
// uniformly random unselected bit" every proposal.  Rebuilding the ones /
// zeros index lists from the state costs O(n) per proposal — the dominant
// move-generation cost on large instances.  This sampler keeps those two
// ascending lists alive across proposals instead, back to back in one
// array (set-bit positions, then cleared-bit positions), so the k-th
// smallest set (or cleared) index is a single load.  A commit moves the
// flipped index from one list to the other with one memmove of the
// entries between its old and new slot; the slots are ranks, counted by
// popcount over a packed copy of the bits.  Proposals vastly outnumber
// commits — filter and Metropolis rejections never touch the lists — so
// the O(1) pick is the side that pays.
//
// Sampling equivalence: kth_one(k) is exactly `ones[k]` of the
// ascending-index list the engine used to rebuild (and kth_zero(k) is
// `zeros[k]`), so a walk driven through this sampler consumes the same rng
// draws and proposes the same swaps bit for bit — the fig10 QUBO-count
// fingerprints are unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hycim::anneal {

/// Ascending position lists of the set and cleared bits of a binary
/// configuration: O(1) k-th order statistics, O(n) flip.
class IndexSampler {
 public:
  IndexSampler() = default;

  /// (Re)builds the lists for configuration `x` in O(n).
  void reset(std::span<const std::uint8_t> x);

  /// Number of tracked bits.
  std::size_t size() const { return order_.size(); }
  /// Number of set bits.
  std::size_t ones() const { return ones_; }
  /// Number of cleared bits.
  std::size_t zeros() const { return order_.size() - ones_; }
  /// Current value of bit `i`.
  bool test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  /// Toggles bit `i` in O(n) (popcount rank + one memmove, no allocation).
  /// Call once per committed flip.
  void flip(std::size_t i);

  /// Index of the k-th smallest set bit (0-based; requires k < ones()).
  /// Equivalent to an ascending ones-index list's `ones[k]`.
  std::size_t kth_one(std::size_t k) const;

  /// Index of the k-th smallest cleared bit (0-based; requires k < zeros()).
  std::size_t kth_zero(std::size_t k) const;

 private:
  /// Number of set bits below position `i`.
  std::size_t rank(std::size_t i) const;

  std::vector<std::uint64_t> words_;  ///< the bits, 64 per word
  /// [0, ones_): set-bit positions ascending; [ones_, size()): cleared-bit
  /// positions ascending.
  std::vector<std::uint32_t> order_;
  std::size_t ones_ = 0;
};

}  // namespace hycim::anneal
