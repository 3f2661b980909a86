#include "cim/crossbar/vmv_engine.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

qubo::QuboMatrix integer_qubo(std::size_t n, util::Rng& rng, long long max) {
  qubo::QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      q.set(i, j, static_cast<double>(rng.uniform_int(-max, max)));
    }
  }
  return q;
}

VmvEngineParams circuit_params(std::uint64_t seed = 1) {
  VmvEngineParams p;
  p.mode = VmvMode::kCircuit;
  p.variation = device::ideal_variation();
  p.adc.bits = 8;
  p.adc.sigma_noise_a = 0.0;
  p.fab_seed = seed;
  return p;
}

TEST(VmvEngine, IdealModeMatchesMatrixEnergy) {
  util::Rng rng(1);
  const auto q = integer_qubo(12, rng, 100);
  VmvEngineParams p;
  p.mode = VmvMode::kIdeal;
  VmvEngine engine(p, q);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.random_bits(12);
    EXPECT_DOUBLE_EQ(engine.energy(x), q.energy(x));
  }
}

TEST(VmvEngine, QuantizedModeExactForIntegerMatrices) {
  util::Rng rng(2);
  const auto q = integer_qubo(10, rng, 100);
  VmvEngineParams p;
  p.mode = VmvMode::kQuantized;
  p.matrix_bits = 7;
  VmvEngine engine(p, q);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.random_bits(10);
    EXPECT_DOUBLE_EQ(engine.energy(x), q.energy(x));
  }
}

TEST(VmvEngine, CircuitModeMatchesQuantizedInIdealCorner) {
  // With no variation and a clean ADC, the full circuit path must agree
  // with the quantized-matrix energy exactly (the surrogate-fidelity
  // justification used by the fast SA path).
  util::Rng rng(3);
  const auto q = integer_qubo(10, rng, 100);
  VmvEngine engine(circuit_params(), q);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.random_bits(10, 0.4);
    EXPECT_NEAR(engine.energy(x), engine.quantized().energy(x), 1e-9)
        << "trial " << trial;
  }
}

TEST(VmvEngine, CircuitModeEmptySelectionIsOffset) {
  util::Rng rng(4);
  auto q = integer_qubo(6, rng, 50);
  q.set_offset(17.0);
  VmvEngine engine(circuit_params(), q);
  EXPECT_NEAR(engine.energy(std::vector<std::uint8_t>(6, 0)), 17.0, 1e-9);
}

TEST(VmvEngine, MagnitudeBitsMatchQuantization) {
  util::Rng rng(5);
  const auto q = integer_qubo(8, rng, 100);
  VmvEngineParams p;
  p.matrix_bits = 7;
  VmvEngine engine(p, q);
  EXPECT_LE(engine.magnitude_bits(), 7);
}

TEST(VmvEngine, SizeMismatchThrows) {
  qubo::QuboMatrix q(4);
  VmvEngine engine(VmvEngineParams{}, q);
  EXPECT_THROW(engine.energy(std::vector<std::uint8_t>(3, 0)),
               std::invalid_argument);
}

TEST(VmvEngine, NegativeOnlyMatrixUsesNegPlanes) {
  // HyCiM matrices are all-negative (Q = -P); the negative plane path must
  // carry the full value.
  qubo::QuboMatrix q(4);
  q.set(0, 0, -10.0);
  q.set(0, 1, -3.0);
  q.set(2, 3, -7.0);
  VmvEngine engine(circuit_params(2), q);
  const std::vector<std::uint8_t> all(4, 1);
  EXPECT_NEAR(engine.energy(all), -20.0, 1e-9);
}

TEST(VmvEngine, AdcClipDegradesLargeColumns) {
  // A 2-bit ADC (max code 3) cannot represent a column with 8 ON cells;
  // the engine must under-report magnitude and count clips.
  qubo::QuboMatrix q(8);
  for (std::size_t i = 0; i < 8; ++i) q.set(i, 7, -1.0);  // column 7 heavy
  auto p = circuit_params(3);
  p.adc.bits = 2;
  VmvEngine engine(p, q);
  const std::vector<std::uint8_t> all(8, 1);
  const double e = engine.energy(all);
  EXPECT_GT(e, q.energy(all));  // magnitude clipped toward zero
  EXPECT_GT(engine.adc_clips(), 0u);
}

TEST(VmvEngine, CircuitWithVariationStaysClose) {
  util::Rng rng(6);
  const auto q = integer_qubo(12, rng, 50);
  auto p = circuit_params(4);
  p.variation = device::VariationParams{};  // realistic corners
  VmvEngine engine(p, q);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = rng.random_bits(12, 0.5);
    const double exact = engine.quantized().energy(x);
    const double hw = engine.energy(x);
    if (exact != 0.0) {
      EXPECT_NEAR(hw / exact, 1.0, 0.2) << "trial " << trial;
    }
  }
}

TEST(VmvEngine, ReprogramIsStableInIdealCorner) {
  util::Rng rng(7);
  const auto q = integer_qubo(6, rng, 30);
  VmvEngine engine(circuit_params(5), q);
  const auto x = rng.random_bits(6);
  const double before = engine.energy(x);
  engine.reprogram();
  EXPECT_NEAR(engine.energy(x), before, 1e-9);
}

// A copy shares the crossbars' programmed cells; its reprogram() installs
// private cells, so the original and a sibling copy keep their energies.
TEST(VmvEngine, ReprogramOnCopyLeavesOriginalAndSiblingUnchanged) {
  util::Rng rng(8);
  const std::size_t n = 16;
  const auto q = integer_qubo(n, rng, 40);
  auto p = circuit_params(6);
  // Cycle-to-cycle noise strong enough to move whole ADC codes.
  p.variation.sigma_vth_c2c = 0.1;
  const VmvEngine proto(p, q);
  std::vector<qubo::BitVector> inputs;
  for (int k = 0; k < 12; ++k) inputs.push_back(rng.random_bits(n));
  VmvEngine reference(proto);
  std::vector<double> energies;
  for (const auto& x : inputs) energies.push_back(reference.energy(x));

  VmvEngine reprogrammed(proto);
  VmvEngine sibling(proto);
  reprogrammed.reprogram();
  bool moved = false;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    moved = moved || reprogrammed.energy(inputs[k]) != energies[k];
  }
  EXPECT_TRUE(moved);

  VmvEngine after(proto);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(after.energy(inputs[k]), energies[k]) << "input " << k;
    EXPECT_EQ(sibling.energy(inputs[k]), energies[k]) << "input " << k;
  }
}

TEST(VmvEngine, ReprogrammedCopyEqualsReprogrammedRefabrication) {
  util::Rng rng(9);
  const std::size_t n = 16;
  const auto q = integer_qubo(n, rng, 40);
  auto p = circuit_params(7);
  p.variation.sigma_vth_c2c = 0.1;
  const VmvEngine proto(p, q);
  VmvEngine copy(proto);
  VmvEngine fresh(p, q);
  copy.reprogram();
  fresh.reprogram();
  for (int k = 0; k < 12; ++k) {
    const auto x = rng.random_bits(n);
    EXPECT_EQ(copy.energy(x), fresh.energy(x)) << "input " << k;
  }
}

}  // namespace
}  // namespace hycim::cim
