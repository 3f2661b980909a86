#include "anneal/index_sampler.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace hycim::anneal {

void IndexSampler::reset(std::span<const std::uint8_t> x) {
  const std::size_t n = x.size();
  words_.assign((n + 63) / 64, 0);
  order_.resize(n);
  ones_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i]) {
      words_[i >> 6] |= std::uint64_t{1} << (i & 63);
      ++ones_;
    }
  }
  std::size_t one = 0, zero = ones_;
  for (std::size_t i = 0; i < n; ++i) {
    order_[x[i] ? one++ : zero++] = static_cast<std::uint32_t>(i);
  }
}

std::size_t IndexSampler::rank(std::size_t i) const {
  std::size_t r = 0;
  for (std::size_t w = 0; w < (i >> 6); ++w) r += std::popcount(words_[w]);
  const std::uint64_t below = (std::uint64_t{1} << (i & 63)) - 1;
  return r + std::popcount(words_[i >> 6] & below);
}

void IndexSampler::flip(std::size_t i) {
  if (i >= size()) throw std::out_of_range("IndexSampler::flip: index");
  // i's slot in the ones list (held or due) is the number of set bits
  // below it; its slot in the zeros list, the number of cleared bits.
  const std::size_t r = rank(i);
  const std::size_t z = i - r;
  std::uint32_t* a = order_.data();
  if (test(i)) {
    // Close the gap at slot r; i lands at zeros slot z of the shorter
    // ones list.
    std::memmove(a + r, a + r + 1, (ones_ - 1 - r + z) * sizeof *a);
    --ones_;
    a[ones_ + z] = static_cast<std::uint32_t>(i);
  } else {
    // Open slot r, closing i's old place at zeros slot z.
    std::memmove(a + r + 1, a + r, (ones_ - r + z) * sizeof *a);
    ++ones_;
    a[r] = static_cast<std::uint32_t>(i);
  }
  words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
}

std::size_t IndexSampler::kth_one(std::size_t k) const {
  if (k >= ones_) throw std::out_of_range("IndexSampler::kth_one: k");
  return order_[k];
}

std::size_t IndexSampler::kth_zero(std::size_t k) const {
  if (k >= zeros()) throw std::out_of_range("IndexSampler::kth_zero: k");
  return order_[ones_ + k];
}

}  // namespace hycim::anneal
