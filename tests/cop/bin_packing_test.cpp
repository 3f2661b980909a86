#include "cop/bin_packing.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

namespace hycim::cop {
namespace {

BinPackingInstance tiny() {
  BinPackingInstance inst;
  inst.bin_capacity = 10;
  inst.max_bins = 2;
  inst.item_sizes = {6, 5, 4};
  return inst;
}

TEST(BinPacking, BinLoad) {
  const auto inst = tiny();
  // item0 -> bin0, item1 -> bin1, item2 -> bin0.
  const std::vector<std::uint8_t> x{1, 0, 0, 1, 1, 0};
  EXPECT_EQ(inst.bin_load(x, 0), 10);
  EXPECT_EQ(inst.bin_load(x, 1), 5);
}

TEST(BinPacking, ValidAssignmentChecks) {
  const auto inst = tiny();
  EXPECT_TRUE(inst.valid_assignment(std::vector<std::uint8_t>{1, 0, 0, 1, 1, 0}));
  // Overfull bin 0 (6+5 = 11 > 10).
  EXPECT_FALSE(
      inst.valid_assignment(std::vector<std::uint8_t>{1, 0, 1, 0, 0, 1}));
  // Item in two bins.
  EXPECT_FALSE(
      inst.valid_assignment(std::vector<std::uint8_t>{1, 1, 0, 1, 1, 0}));
  // Item unassigned.
  EXPECT_FALSE(
      inst.valid_assignment(std::vector<std::uint8_t>{0, 0, 0, 1, 1, 0}));
}

TEST(BinPacking, BinsUsed) {
  const auto inst = tiny();
  EXPECT_EQ(inst.bins_used(std::vector<std::uint8_t>{1, 0, 0, 1, 1, 0}), 2u);
  EXPECT_EQ(inst.bins_used(std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0}), 0u);
}

TEST(BinPacking, LowerBoundIsCeiling) {
  const auto inst = tiny();  // total 15, capacity 10 -> 2 bins minimum
  EXPECT_EQ(inst.lower_bound(), 2u);
}

TEST(FirstFitDecreasing, ProducesValidPacking) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = generate_bin_packing(20, 30, 15, seed);
    const auto assignment = first_fit_decreasing(inst);
    std::vector<long long> loads(inst.max_bins, 0);
    for (std::size_t i = 0; i < inst.num_items(); ++i) {
      ASSERT_LT(assignment[i], inst.max_bins);
      loads[assignment[i]] += inst.item_sizes[i];
    }
    for (auto load : loads) EXPECT_LE(load, inst.bin_capacity);
  }
}

TEST(FirstFitDecreasing, RespectsLowerBound) {
  const auto inst = generate_bin_packing(30, 25, 12, 3);
  EXPECT_GE(inst.max_bins, inst.lower_bound());
}

TEST(Generator, ItemLargerThanBinThrows) {
  EXPECT_THROW(generate_bin_packing(5, 10, 20, 1), std::invalid_argument);
}

// validate() throws std::invalid_argument whose message names the field.
void expect_invalid(const BinPackingInstance& inst, const std::string& field) {
  try {
    inst.validate();
    ADD_FAILURE() << "expected invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(BinPackingValidate, AcceptsWellFormedInstances) {
  EXPECT_NO_THROW(tiny().validate());
  EXPECT_NO_THROW(generate_bin_packing(30, 25, 12, 3).validate());
  auto inst = tiny();
  inst.item_sizes.push_back(0);   // an empty item fits anywhere
  inst.item_sizes.push_back(10);  // exactly one bin's capacity
  inst.max_bins = 3;
  EXPECT_NO_THROW(inst.validate());
}

TEST(BinPackingValidate, RejectsItemLargerThanBin) {
  auto inst = tiny();
  inst.item_sizes[1] = 11;
  expect_invalid(inst, "item_sizes[1]");
}

TEST(BinPackingValidate, RejectsNegativeItem) {
  auto inst = tiny();
  inst.item_sizes[2] = -3;
  expect_invalid(inst, "item_sizes[2]");
}

TEST(BinPackingValidate, RejectsNonPositiveCapacity) {
  auto inst = tiny();
  inst.bin_capacity = 0;
  expect_invalid(inst, "bin_capacity");
  inst.bin_capacity = -5;
  expect_invalid(inst, "bin_capacity");
}

TEST(BinPackingValidate, RejectsMaxBinsBelowFirstFitDecreasing) {
  auto inst = tiny();  // FFD packs {6, 4} and {5}: two bins
  inst.max_bins = 1;
  expect_invalid(inst, "max_bins");
}

TEST(Generator, Deterministic) {
  const auto a = generate_bin_packing(15, 20, 10, 7);
  const auto b = generate_bin_packing(15, 20, 10, 7);
  EXPECT_EQ(a.item_sizes, b.item_sizes);
  EXPECT_EQ(a.max_bins, b.max_bins);
}

}  // namespace
}  // namespace hycim::cop
