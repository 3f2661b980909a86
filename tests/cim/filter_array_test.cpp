#include "cim/filter/filter_array.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

FilterArray make_array(const std::vector<long long>& weights,
                       const device::VariationParams& var =
                           device::ideal_variation(),
                       std::uint64_t seed = 1) {
  FilterArrayParams params;
  device::VariationModel fab(var, seed);
  return FilterArray(params, weights, fab);
}

TEST(FilterArray, StoresDecomposedWeights) {
  const std::vector<long long> weights{0, 7, 64, 33};
  auto array = make_array(weights);
  for (std::size_t col = 0; col < weights.size(); ++col) {
    EXPECT_EQ(array.column_weight(col), weights[col]) << "col " << col;
  }
}

TEST(FilterArray, RejectsOversizedWeight) {
  FilterArrayParams params;
  device::VariationModel fab(device::ideal_variation(), 1);
  EXPECT_THROW(FilterArray(params, {65}, fab), std::invalid_argument);
}

TEST(FilterArray, RejectsWrongInputSize) {
  auto array = make_array({3, 4});
  EXPECT_THROW(array.evaluate(std::vector<std::uint8_t>{1}),
               std::invalid_argument);
}

TEST(FilterArray, NoSelectionKeepsMlNearVdd) {
  auto array = make_array({10, 20, 30});
  const double v = array.evaluate(std::vector<std::uint8_t>{0, 0, 0});
  EXPECT_NEAR(v, array.params().v_dd, 1e-3);
}

TEST(FilterArray, MlDropsWithSelectedWeight) {
  auto array = make_array({10, 20, 30});
  const double v_dd = array.params().v_dd;
  const double v10 = array.evaluate(std::vector<std::uint8_t>{1, 0, 0});
  const double v30 = array.evaluate(std::vector<std::uint8_t>{0, 0, 1});
  const double v60 = array.evaluate(std::vector<std::uint8_t>{1, 1, 1});
  EXPECT_LT(v10, v_dd);
  EXPECT_LT(v30, v10);
  EXPECT_LT(v60, v30);
}

TEST(FilterArray, EqualWeightsGiveEqualMl) {
  // Two disjoint selections of the same total weight land on (nearly) the
  // same ML voltage — the core Eq. (9) property.
  auto array = make_array({12, 12, 24, 24});
  const double va = array.evaluate(std::vector<std::uint8_t>{1, 1, 0, 0});
  const double vb = array.evaluate(std::vector<std::uint8_t>{0, 0, 1, 0});
  EXPECT_NEAR(va, vb, 1e-4);
}

TEST(FilterArray, LogMlIsLinearInWeight) {
  // The exponential-discharge model: ln(V) decreases linearly with the
  // selected weight (ideal corner).
  std::vector<long long> weights(8, 8);  // total up to 64
  auto array = make_array(weights);
  std::vector<double> log_v;
  std::vector<std::uint8_t> x(8, 0);
  for (std::size_t k = 0; k <= 8; ++k) {
    if (k > 0) x[k - 1] = 1;
    log_v.push_back(std::log(array.evaluate(x)));
  }
  // Slope between consecutive points must be constant.
  const double slope0 = log_v[1] - log_v[0];
  for (std::size_t k = 2; k <= 8; ++k) {
    EXPECT_NEAR(log_v[k] - log_v[k - 1], slope0, std::abs(slope0) * 0.05)
        << "step " << k;
  }
  EXPECT_LT(slope0, 0.0);
}

TEST(FilterArray, MonotoneInWeightAcrossColumns) {
  // Heavier single column discharges strictly more (ideal corner).
  std::vector<long long> weights;
  for (long long w = 0; w <= 64; w += 8) weights.push_back(w);
  auto array = make_array(weights);
  double prev = array.params().v_dd + 1;
  for (std::size_t col = 0; col < weights.size(); ++col) {
    std::vector<std::uint8_t> x(weights.size(), 0);
    x[col] = 1;
    const double v = array.evaluate(x);
    EXPECT_LT(v, prev) << "w=" << weights[col];
    prev = v;
  }
}

TEST(FilterArray, WaveformStartsAtVddAndDescends) {
  auto array = make_array({40, 20});
  std::vector<MlSample> wf;
  array.evaluate_waveform(std::vector<std::uint8_t>{1, 1}, wf, 4);
  ASSERT_GT(wf.size(), 4u);
  EXPECT_DOUBLE_EQ(wf.front().v_ml, array.params().v_dd);
  EXPECT_DOUBLE_EQ(wf.front().time_s, 0.0);
  for (std::size_t i = 1; i < wf.size(); ++i) {
    EXPECT_LE(wf[i].v_ml, wf[i - 1].v_ml + 1e-12);
    EXPECT_GT(wf[i].time_s, wf[i - 1].time_s);
  }
}

TEST(FilterArray, WaveformFinalMatchesEvaluate) {
  auto array = make_array({13, 27, 5});
  const std::vector<std::uint8_t> x{1, 0, 1};
  std::vector<MlSample> wf;
  const double v_wf = array.evaluate_waveform(x, wf, 8);
  EXPECT_DOUBLE_EQ(v_wf, array.evaluate(x));
  EXPECT_DOUBLE_EQ(wf.back().v_ml, v_wf);
}

TEST(FilterArray, WaveformSampleCount) {
  auto array = make_array({1});
  std::vector<MlSample> wf;
  array.evaluate_waveform(std::vector<std::uint8_t>{1}, wf, 3);
  // 1 precharge sample + phases * samples_per_phase.
  EXPECT_EQ(wf.size(), 1 + array.phases() * 3);
}

TEST(FilterArray, ReprogramIsNoOpInIdealCorner) {
  auto array = make_array({22, 41});
  const std::vector<std::uint8_t> x{1, 1};
  const double before = array.evaluate(x);
  util::Rng rng(5);
  array.reprogram(rng);
  EXPECT_NEAR(array.evaluate(x), before, 1e-12);
}

TEST(FilterArray, ReprogramShiftsMlUnderC2cNoise) {
  device::VariationParams var = device::ideal_variation();
  var.sigma_vth_c2c = 0.01;
  auto array = make_array({30, 30}, var, 3);
  const std::vector<std::uint8_t> x{1, 1};
  const double before = array.evaluate(x);
  util::Rng rng(6);
  array.reprogram(rng);
  const double after = array.evaluate(x);
  EXPECT_NE(before, after);
  EXPECT_NEAR(before, after, 0.05);  // small perturbation, not a new regime
}

TEST(FilterArray, VariationPreservesOrderingForLargeGaps) {
  device::VariationParams var;  // default (realistic) corners
  auto array = make_array({10, 40}, var, 9);
  const double v_small = array.evaluate(std::vector<std::uint8_t>{1, 0});
  const double v_large = array.evaluate(std::vector<std::uint8_t>{0, 1});
  EXPECT_GT(v_small, v_large);
}

// Copies share the programmed cells; reprogram() and age() install a
// private copy first, so neither reaches the original or a sibling copy.
TEST(FilterArray, ReprogramOrAgeOnCopyLeavesOriginalAndSiblingUnchanged) {
  const std::vector<long long> weights{12, 40, 7, 33, 25};
  auto proto = make_array(weights, device::VariationParams{}, 4);
  const std::vector<std::uint8_t> x{1, 0, 1, 1, 0};
  const std::vector<std::size_t> flips{1, 3};
  proto.bind(x);
  const double ml = proto.evaluate(x);
  const double bound = proto.bound_voltage();
  const double trial = proto.trial(flips);

  FilterArray reprogrammed(proto);
  FilterArray aged(proto);
  FilterArray sibling(proto);
  util::Rng rng(6);
  reprogrammed.reprogram(rng);
  aged.age(1e6);
  EXPECT_NE(reprogrammed.evaluate(x), ml);
  EXPECT_NE(aged.evaluate(x), ml);
  // The mutated copies re-aggregated their own bound state.
  EXPECT_EQ(reprogrammed.bound_voltage(), reprogrammed.evaluate(x));
  EXPECT_EQ(aged.bound_voltage(), aged.evaluate(x));

  for (FilterArray* array : {&proto, &sibling}) {
    EXPECT_EQ(array->evaluate(x), ml);
    EXPECT_EQ(array->bound_voltage(), bound);
    EXPECT_EQ(array->trial(flips), trial);
    for (std::size_t col = 0; col < weights.size(); ++col) {
      EXPECT_EQ(array->column_weight(col), weights[col]);
      for (std::size_t row = 0; row < array->rows(); ++row) {
        EXPECT_EQ(array->cell_level(row, col), proto.cell_level(row, col));
      }
    }
  }
}

TEST(FilterArray, MutatedCopyEqualsSameMutationOfRefabrication) {
  const std::vector<long long> weights{12, 40, 7, 33, 25};
  const device::VariationParams var;  // c2c noise and drift both on
  const auto proto = make_array(weights, var, 4);
  FilterArray copy(proto);
  auto fresh = make_array(weights, var, 4);
  util::Rng copy_rng(8);
  util::Rng fresh_rng(8);
  copy.reprogram(copy_rng);
  fresh.reprogram(fresh_rng);
  copy.age(3600.0);
  fresh.age(3600.0);
  util::Rng inputs(9);
  for (int k = 0; k < 8; ++k) {
    const auto x = inputs.random_bits(weights.size());
    EXPECT_EQ(copy.evaluate(x), fresh.evaluate(x)) << "input " << k;
  }
}

TEST(FilterArray, PhasesMatchDeviceLevels) {
  auto array = make_array({1});
  EXPECT_EQ(array.phases(),
            static_cast<std::size_t>(FilterArrayParams{}.fefet.num_levels - 1));
}

}  // namespace
}  // namespace hycim::cim
