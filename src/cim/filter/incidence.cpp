#include "cim/filter/incidence.hpp"

#include <stdexcept>

namespace hycim::cim {

VariableIncidence::VariableIncidence(
    std::span<const std::vector<std::uint32_t>> supports,
    std::size_t variables) {
  offsets_.assign(variables + 1, 0);
  for (const auto& support : supports) {
    for (const std::uint32_t k : support) ++offsets_[k + 1];
  }
  for (std::size_t k = 0; k < variables; ++k) offsets_[k + 1] += offsets_[k];
  entries_.resize(offsets_[variables]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t f = 0; f < supports.size(); ++f) {
    const auto& support = supports[f];
    for (std::uint32_t local = 0;
         local < static_cast<std::uint32_t>(support.size()); ++local) {
      entries_[cursor[support[local]]++] = {static_cast<std::uint32_t>(f),
                                            local};
    }
  }
}

std::span<const VariableIncidence::Touched> VariableIncidence::group(
    std::span<const std::size_t> flips) const {
  runs_.clear();
  std::size_t total = 0;
  for (const std::size_t k : flips) {
    if (k >= variables()) {
      throw std::invalid_argument("VariableIncidence: flip out of range");
    }
    runs_.push_back({offsets_[k], offsets_[k + 1]});
    total += offsets_[k + 1] - offsets_[k];
  }
  // With the capacity reserved up front, push_back never reallocates, so
  // each Touched can view locals_ as its run is appended.
  locals_.clear();
  locals_.reserve(total);
  touched_.clear();
  // Merge the flips' runs, each already in ascending filter order (the
  // order the pre-incidence loop judged filters in).  Ties go to the
  // earliest flip, so a filter sees its flips in proposal order.
  for (;;) {
    Run* next = nullptr;
    for (auto& run : runs_) {
      if (run.begin != run.end &&
          (next == nullptr ||
           entries_[run.begin].first < entries_[next->begin].first)) {
        next = &run;
      }
    }
    if (next == nullptr) break;
    const auto [filter, local] = entries_[next->begin++];
    if (touched_.empty() || touched_.back().filter != filter) {
      touched_.push_back({filter, {locals_.data() + locals_.size(), 0}});
    }
    locals_.push_back(local);
    auto& locals = touched_.back().locals;
    locals = {locals.data(), locals.size() + 1};
  }
  return touched_;
}

}  // namespace hycim::cim
