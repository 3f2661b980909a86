#include "cim/crossbar/crossbar.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hycim::cim {
namespace {

CrossbarArray make_crossbar(std::size_t rows, std::size_t cols,
                            const std::vector<std::uint8_t>& bits,
                            const device::VariationParams& var =
                                device::ideal_variation(),
                            std::uint64_t seed = 1) {
  CrossbarParams params;
  device::VariationModel fab(var, seed);
  return CrossbarArray(params, rows, cols, bits, fab);
}

TEST(Crossbar, RejectsSizeMismatch) {
  CrossbarParams params;
  device::VariationModel fab(device::ideal_variation(), 1);
  EXPECT_THROW(CrossbarArray(params, 2, 2, std::vector<std::uint8_t>{1}, fab),
               std::invalid_argument);
}

TEST(Crossbar, RejectsMultiLevelCorner) {
  CrossbarParams params;
  params.fefet.num_levels = 5;
  device::VariationModel fab(device::ideal_variation(), 1);
  EXPECT_THROW(
      CrossbarArray(params, 1, 1, std::vector<std::uint8_t>{1}, fab),
      std::invalid_argument);
}

TEST(Crossbar, ColumnCurrentCountsOnCells) {
  // 3x2: column 0 bits {1,1,0}, column 1 bits {0,1,1}.
  const std::vector<std::uint8_t> bits{1, 0, 1, 1, 0, 1};
  auto xb = make_crossbar(3, 2, bits);
  const double i_cell = xb.nominal_cell_current();
  const std::vector<std::uint8_t> all_rows{1, 1, 1};
  EXPECT_NEAR(xb.column_current(all_rows, 0), 2 * i_cell, 0.05 * i_cell);
  EXPECT_NEAR(xb.column_current(all_rows, 1), 2 * i_cell, 0.05 * i_cell);
}

TEST(Crossbar, RowGatingMasksCells) {
  const std::vector<std::uint8_t> bits{1, 1, 1, 1};  // 2x2 all programmed
  auto xb = make_crossbar(2, 2, bits);
  const double i_cell = xb.nominal_cell_current();
  EXPECT_NEAR(xb.column_current(std::vector<std::uint8_t>{1, 0}, 0), i_cell,
              0.05 * i_cell);
  EXPECT_LT(xb.column_current(std::vector<std::uint8_t>{0, 0}, 0),
            0.01 * i_cell);
}

TEST(Crossbar, UnprogrammedCellContributesOnlyLeakage) {
  const std::vector<std::uint8_t> bits{0};
  auto xb = make_crossbar(1, 1, bits);
  EXPECT_LT(xb.column_current(std::vector<std::uint8_t>{1}, 0),
            0.01 * xb.nominal_cell_current());
}

TEST(Crossbar, LinearityVsActivatedCells) {
  // Fig. 7(d): summed current grows linearly with the number of activated
  // cells.  32x32 chip, all cells programmed.
  const std::size_t n = 32;
  std::vector<std::uint8_t> bits(n * n, 1);
  auto xb = make_crossbar(n, n, bits);
  const double i_cell = xb.nominal_cell_current();
  for (std::size_t count : {1u, 8u, 16u, 24u, 32u}) {
    EXPECT_NEAR(xb.activated_cells_current(count),
                static_cast<double>(count) * i_cell,
                0.02 * static_cast<double>(count) * i_cell)
        << count << " cells";
  }
}

TEST(Crossbar, LinearityHoldsUnderRealisticVariation) {
  const std::size_t n = 32;
  std::vector<std::uint8_t> bits(n * n, 1);
  device::VariationParams var;  // realistic defaults
  auto xb = make_crossbar(n, n, bits, var, 7);
  const double i16 = xb.activated_cells_current(16);
  const double i32 = xb.activated_cells_current(32);
  EXPECT_NEAR(i32 / i16, 2.0, 0.1);  // regulation keeps it linear
}

TEST(Crossbar, BitAccessor) {
  const std::vector<std::uint8_t> bits{1, 0, 0, 1};
  auto xb = make_crossbar(2, 2, bits);
  EXPECT_EQ(xb.bit(0, 0), 1);
  EXPECT_EQ(xb.bit(0, 1), 0);
  EXPECT_EQ(xb.bit(1, 1), 1);
}

TEST(Crossbar, ReprogramPreservesIdealBehavior) {
  const std::vector<std::uint8_t> bits{1, 1, 0, 1};
  auto xb = make_crossbar(2, 2, bits);
  const std::vector<std::uint8_t> rows{1, 1};
  const double before = xb.column_current(rows, 0);
  util::Rng rng(9);
  xb.reprogram(rng);
  EXPECT_NEAR(xb.column_current(rows, 0), before, 1e-12);
}

TEST(Crossbar, ReprogramPerturbsUnderC2cNoise) {
  device::VariationParams var = device::ideal_variation();
  var.sigma_vth_c2c = 0.02;
  const std::size_t n = 8;
  std::vector<std::uint8_t> bits(n * n, 1);
  auto xb = make_crossbar(n, n, bits, var, 3);
  const std::vector<std::uint8_t> rows(n, 1);
  const double before = xb.column_current(rows, 0);
  util::Rng rng(10);
  xb.reprogram(rng);
  const double after = xb.column_current(rows, 0);
  EXPECT_NE(before, after);
  EXPECT_NEAR(after / before, 1.0, 0.05);  // regulated: small change
}

// Copies share the programmed cells and current caches; reprogram() and
// age() install a private copy first, so neither reaches another copy.
TEST(Crossbar, ReprogramOrAgeOnCopyLeavesOriginalAndSiblingUnchanged) {
  const std::size_t n = 6;
  util::Rng rng(12);
  const auto bits = rng.random_bits(n * n);
  const auto proto = make_crossbar(n, n, bits, device::VariationParams{}, 5);
  const auto x = rng.random_bits(n);
  std::vector<double> currents, toggles;
  for (std::size_t col = 0; col < n; ++col) {
    currents.push_back(proto.column_current(x, col));
    for (std::size_t row = 0; row < n; ++row) {
      toggles.push_back(proto.row_toggle_delta(row, col));
    }
  }

  CrossbarArray reprogrammed(proto);
  CrossbarArray aged(proto);
  const CrossbarArray sibling(proto);
  util::Rng reprogram_rng(13);
  reprogrammed.reprogram(reprogram_rng);
  aged.age(1e6);
  EXPECT_NE(reprogrammed.column_current(x, 0), currents[0]);
  EXPECT_NE(aged.column_current(x, 0), currents[0]);

  for (const CrossbarArray* xb : {&proto, &sibling}) {
    std::size_t t = 0;
    for (std::size_t col = 0; col < n; ++col) {
      EXPECT_EQ(xb->column_current(x, col), currents[col]);
      for (std::size_t row = 0; row < n; ++row) {
        EXPECT_EQ(xb->row_toggle_delta(row, col), toggles[t++]);
        EXPECT_EQ(xb->bit(row, col), bits[row * n + col]);
      }
    }
  }
}

TEST(Crossbar, MutatedCopyEqualsSameMutationOfRefabrication) {
  const std::size_t n = 6;
  util::Rng rng(14);
  const auto bits = rng.random_bits(n * n);
  const device::VariationParams var;
  const auto proto = make_crossbar(n, n, bits, var, 5);
  CrossbarArray copy(proto);
  auto fresh = make_crossbar(n, n, bits, var, 5);
  util::Rng copy_rng(15);
  util::Rng fresh_rng(15);
  copy.reprogram(copy_rng);
  fresh.reprogram(fresh_rng);
  copy.age(3600.0);
  fresh.age(3600.0);
  const auto x = rng.random_bits(n);
  for (std::size_t col = 0; col < n; ++col) {
    EXPECT_EQ(copy.column_current(x, col), fresh.column_current(x, col));
  }
}

TEST(Crossbar, ReadVoltageBetweenLevels) {
  const std::vector<std::uint8_t> bits{1};
  auto xb = make_crossbar(1, 1, bits);
  const auto fefet = CrossbarParams::binary_fefet();
  EXPECT_GT(xb.read_voltage(), fefet.vth_low);
  EXPECT_LT(xb.read_voltage(), fefet.vth_high);
}

}  // namespace
}  // namespace hycim::cim
