#include "cim/filter/filter_bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "cim/filter/incidence.hpp"
#include "util/rng.hpp"

namespace hycim::cim {
namespace {

InequalityFilterParams ideal_params() {
  InequalityFilterParams p;
  p.variation = device::ideal_variation();
  p.comparator.sigma_offset = 0.0;
  p.comparator.sigma_noise = 0.0;
  return p;
}

FilterBank two_constraint_bank() {
  // w1 = (3, 4, 0, 0) <= 5;  w2 = (0, 0, 2, 6) <= 7.
  std::vector<LinearConstraint> cs(2);
  cs[0].weights = {3, 4, 0, 0};
  cs[0].capacity = 5;
  cs[1].weights = {0, 0, 2, 6};
  cs[1].capacity = 7;
  return FilterBank(ideal_params(), cs, 4);
}

TEST(FilterBank, RejectsEmptyConstraintSet) {
  EXPECT_THROW(FilterBank(ideal_params(), {}, 3), std::invalid_argument);
}

TEST(FilterBank, RejectsWidthMismatch) {
  std::vector<LinearConstraint> cs(1);
  cs[0].weights = {1, 2};
  cs[0].capacity = 3;
  EXPECT_THROW(FilterBank(ideal_params(), cs, 3), std::invalid_argument);
}

TEST(FilterBank, AllConstraintsMustHold) {
  auto bank = two_constraint_bank();
  // Both satisfied.
  EXPECT_TRUE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 1, 0}));
  // First violated (3+4 = 7 > 5).
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0}));
  // Second violated (2+6 = 8 > 7).
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{0, 0, 1, 1}));
  // Both violated.
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 1, 1}));
}

TEST(FilterBank, VerdictsAttributeRejections) {
  auto bank = two_constraint_bank();
  const auto v = bank.verdicts(std::vector<std::uint8_t>{1, 1, 1, 0});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_FALSE(v[0]);  // 7 > 5
  EXPECT_TRUE(v[1]);   // 2 <= 7
}

TEST(FilterBank, ExactFeasibleMatchesHardwareInIdealCorner) {
  auto bank = two_constraint_bank();
  util::Rng rng(3);
  for (int trial = 0; trial < 16; ++trial) {
    const auto x = rng.random_bits(4);
    EXPECT_EQ(bank.is_feasible(x), bank.exact_feasible(x));
  }
}

TEST(FilterBank, EvaluationCountsAccumulate) {
  auto bank = two_constraint_bank();
  bank.is_feasible(std::vector<std::uint8_t>{0, 0, 0, 0});  // both evaluated
  bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0});  // short-circuits
  EXPECT_GE(bank.total_evaluations(), 3u);
  EXPECT_EQ(bank.size(), 2u);
}

TEST(FilterBank, SupportCompressionIgnoresZeroWeightColumns) {
  // Each filter is fabricated over its support only: constraint 2's zeros
  // on the first two columns mean those variables are simply not wired in,
  // so toggling them cannot change its verdict.
  auto bank = two_constraint_bank();
  ASSERT_EQ(bank.support(0).size(), 2u);
  EXPECT_EQ(bank.support(0)[0], 0u);
  EXPECT_EQ(bank.support(0)[1], 1u);
  ASSERT_EQ(bank.support(1).size(), 2u);
  EXPECT_EQ(bank.support(1)[0], 2u);
  EXPECT_EQ(bank.support(1)[1], 3u);
  EXPECT_EQ(bank.filter(1).items(), 2u);
  EXPECT_TRUE(bank.touches(1, 2));
  EXPECT_FALSE(bank.touches(1, 0));
  EXPECT_FALSE(bank.touches(0, 3));

  const auto a = bank.verdicts(std::vector<std::uint8_t>{0, 0, 1, 0});
  const auto b = bank.verdicts(std::vector<std::uint8_t>{1, 1, 1, 0});
  EXPECT_TRUE(a[1]);
  EXPECT_TRUE(b[1]);  // constraint 2 unchanged by columns it is blind to
}

TEST(FilterBank, ReprogramKeepsDecisionsInIdealCorner) {
  auto bank = two_constraint_bank();
  bank.reprogram();
  EXPECT_TRUE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 1, 0}));
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(FilterBank, NoisyCornersClassifyOffBoundary) {
  std::vector<LinearConstraint> cs(3);
  util::Rng rng(7);
  for (auto& c : cs) {
    c.weights.resize(30);
    for (auto& w : c.weights) {
      w = rng.bernoulli(0.5) ? rng.uniform_int(1, 40) : 0;
    }
    c.capacity = 200;
  }
  InequalityFilterParams params;  // realistic corners
  params.fab_seed = 5;
  FilterBank bank(params, cs, 30);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 60; ++trial) {
    const auto x = rng.random_bits(30, 0.4);
    // Only score configurations at least 3 units from every boundary.
    bool near_boundary = false;
    for (const auto& c : cs) {
      long long t = 0;
      for (std::size_t i = 0; i < 30; ++i) {
        if (x[i]) t += c.weights[i];
      }
      if (std::llabs(t - c.capacity) < 3) near_boundary = true;
    }
    if (near_boundary) continue;
    ++checked;
    EXPECT_EQ(bank.is_feasible(x), bank.exact_feasible(x));
  }
  EXPECT_GE(checked, 30);
}

// --- VariableIncidence::group ---------------------------------------------
// group() merges the flipped variables' incidence runs.  The reference is
// the grouping it replaced: copy every flipped variable's (filter, local)
// entries in flip order, stable-sort them by filter with an insertion sort,
// and cut one group per filter.

using Grouping = std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>>;

Grouping reference_group(std::span<const std::vector<std::uint32_t>> supports,
                         std::span<const std::size_t> flips) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  for (const std::size_t k : flips) {
    for (std::uint32_t f = 0; f < supports.size(); ++f) {
      const auto& support = supports[f];
      const auto it = std::lower_bound(support.begin(), support.end(),
                                       static_cast<std::uint32_t>(k));
      if (it != support.end() && *it == k) {
        entries.push_back(
            {f, static_cast<std::uint32_t>(it - support.begin())});
      }
    }
  }
  for (std::size_t s = 1; s < entries.size(); ++s) {
    const auto entry = entries[s];
    std::size_t t = s;
    while (t > 0 && entries[t - 1].first > entry.first) {
      entries[t] = entries[t - 1];
      --t;
    }
    entries[t] = entry;
  }
  Grouping out;
  for (const auto& [filter, local] : entries) {
    if (out.empty() || out.back().first != filter) out.push_back({filter, {}});
    out.back().second.push_back(local);
  }
  return out;
}

Grouping grouped(const VariableIncidence& incidence,
                 std::span<const std::size_t> flips) {
  Grouping out;
  for (const auto& touched : incidence.group(flips)) {
    out.push_back({touched.filter,
                   {touched.locals.begin(), touched.locals.end()}});
  }
  return out;
}

TEST(VariableIncidence, GroupMatchesCopyAndSortReferenceOnRandomSupports) {
  util::Rng rng(12);
  for (int instance = 0; instance < 20; ++instance) {
    const std::size_t n = 1 + rng.index(40);
    const std::size_t filters = 1 + rng.index(12);
    std::vector<std::vector<std::uint32_t>> supports(filters);
    for (auto& support : supports) {
      const double density = rng.uniform();
      for (std::uint32_t k = 0; k < n; ++k) {
        if (rng.uniform() < density) support.push_back(k);
      }
    }
    const VariableIncidence incidence(supports, n);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::size_t> flips(1 + rng.index(3));
      for (auto& k : flips) k = rng.index(n);
      ASSERT_EQ(grouped(incidence, flips), reference_group(supports, flips))
          << "instance " << instance << " trial " << trial;
    }
  }
}

TEST(VariableIncidence, SharedFiltersKeepFlipOrderWithinEachFilter) {
  // Variable 2 is wired into every filter; variables 0 and 4 share filters
  // 1 and 3 with it and with each other.
  const std::vector<std::vector<std::uint32_t>> supports{
      {2, 3}, {0, 2, 4}, {1, 2}, {0, 2, 4}, {2}};
  const VariableIncidence incidence(supports, 5);
  for (const auto& flips : std::vector<std::vector<std::size_t>>{
           {2}, {0, 4}, {4, 0}, {2, 4}, {4, 2}, {0, 2}, {1, 3}, {3, 1},
           {2, 2}}) {
    EXPECT_EQ(grouped(incidence, flips), reference_group(supports, flips));
  }
  const std::array<std::size_t, 2> swap{4, 0};
  const auto touched = incidence.group(swap);
  ASSERT_EQ(touched.size(), 2u);
  EXPECT_EQ(touched[0].filter, 1u);
  EXPECT_EQ(std::vector<std::size_t>(touched[0].locals.begin(),
                                     touched[0].locals.end()),
            (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(touched[1].filter, 3u);
}

TEST(VariableIncidence, UnwiredFlipsTouchNothingAndOutOfRangeThrows) {
  const std::vector<std::vector<std::uint32_t>> supports{{1}, {1, 2}};
  const VariableIncidence incidence(supports, 4);
  const std::array<std::size_t, 2> unwired{0, 3};
  EXPECT_TRUE(incidence.group(unwired).empty());
  const std::array<std::size_t, 1> bad{4};
  EXPECT_THROW(incidence.group(bad), std::invalid_argument);
}

}  // namespace
}  // namespace hycim::cim
