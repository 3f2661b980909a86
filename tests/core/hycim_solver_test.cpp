#include "core/hycim_solver.hpp"

#include <gtest/gtest.h>

#include "cop/adapters.hpp"
#include "cop/qkp.hpp"
#include "core/exact.hpp"
#include "util/rng.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance small_instance(std::uint64_t seed, std::size_t n = 16) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 50;
  return cop::generate_qkp(params, seed);
}

HyCimConfig fast_config(std::size_t iterations = 3000) {
  HyCimConfig config;
  config.sa.iterations = iterations;
  config.fidelity = cim::VmvMode::kQuantized;
  config.filter_mode = FilterMode::kSoftware;
  return config;
}

TEST(HyCimSolver, ResultIsAlwaysFeasible) {
  const auto inst = small_instance(1);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto result = cop::solve_qkp_from_random(solver, inst, seed);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(inst.feasible(result.best_x));
    EXPECT_EQ(result.profit, inst.total_profit(result.best_x));
  }
}

TEST(HyCimSolver, ReachesExactOptimumOnSmallInstances) {
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    const auto inst = small_instance(seed, 14);
    const auto truth = exact_qkp(inst);
    HyCimSolver solver(cop::to_constrained_form(inst), fast_config(8000));
    long long best = 0;
    for (std::uint64_t run = 1; run <= 4; ++run) {
      best = std::max(best, cop::solve_qkp_from_random(solver, inst, run).profit);
    }
    EXPECT_GE(best, truth.best_profit * 95 / 100) << "seed " << seed;
  }
}

TEST(HyCimSolver, EnergyProfitConsistency) {
  const auto inst = small_instance(5);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  const auto result = cop::solve_qkp_from_random(solver, inst, 9);
  // best_energy is the (quantized == exact for integer) QUBO energy.
  EXPECT_NEAR(result.best_energy, -static_cast<double>(result.profit), 1e-9);
}

TEST(HyCimSolver, RejectsWrongInitialSize) {
  const auto inst = small_instance(6);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  EXPECT_THROW(solver.solve(qubo::BitVector(3, 0), 1), std::invalid_argument);
}

TEST(HyCimSolver, HardwareFilterModeSolves) {
  const auto inst = small_instance(7, 20);
  HyCimConfig config = fast_config(1500);
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  config.filter.comparator.sigma_offset = 0.0;
  config.filter.comparator.sigma_noise = 0.0;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  ASSERT_NE(solver.filter_bank(), nullptr);
  ASSERT_EQ(solver.filter_bank()->size(), 1u);
  const auto result = cop::solve_qkp_from_random(solver, inst, 3);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.profit, 0);
  // The filter was actually exercised.
  EXPECT_GT(solver.filter_bank()->filter(0).stats().evaluations, 0u);
  EXPECT_EQ(solver.filter_bank()->total_evaluations(),
            solver.filter_bank()->filter(0).stats().evaluations);
}

TEST(HyCimSolver, SoftwareModeHasNoFilter) {
  const auto inst = small_instance(8);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  EXPECT_EQ(solver.filter_bank(), nullptr);
}

TEST(HyCimSolver, CircuitFidelitySolvesTinyInstance) {
  const auto inst = small_instance(9, 8);
  HyCimConfig config;
  config.sa.iterations = 400;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = FilterMode::kSoftware;
  config.vmv.variation = device::ideal_variation();
  config.vmv.adc.bits = 8;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto result = cop::solve_qkp_from_random(solver, inst, 2);
  EXPECT_TRUE(result.feasible);
  const auto truth = exact_qkp(inst);
  EXPECT_GE(result.profit, truth.best_profit / 2);
}

TEST(HyCimSolver, DeterministicForFixedSeeds) {
  const auto inst = small_instance(10);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config(500));
  const auto a = cop::solve_qkp_from_random(solver, inst, 77);
  const auto b = cop::solve_qkp_from_random(solver, inst, 77);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.profit, b.profit);
}

TEST(HyCimSolver, InfeasibleRejectionsCounted) {
  // Tight capacity: most add-flips are infeasible and must be filtered.
  auto inst = small_instance(11, 20);
  inst.capacity = inst.max_weight();  // roughly one item fits
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config(1000));
  const auto result = cop::solve_qkp_from_random(solver, inst, 5);
  EXPECT_GT(result.sa.rejected_infeasible, 0u);
  EXPECT_TRUE(result.feasible);
}

TEST(HyCimSolver, TraceCanBeRecorded) {
  const auto inst = small_instance(12);
  HyCimConfig config = fast_config(300);
  config.sa.record_trace = true;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto result = cop::solve_qkp_from_random(solver, inst, 1);
  EXPECT_EQ(result.sa.trace.size(), 300u);
}

TEST(HyCimSolver, FormExposesTransformation) {
  const auto inst = small_instance(13);
  const auto form = cop::to_constrained_form(inst);
  HyCimSolver solver(form, fast_config());
  EXPECT_EQ(solver.form().size(), inst.n);
  ASSERT_EQ(solver.form().constraints.size(), 1u);
  EXPECT_EQ(solver.form().constraints[0].capacity, inst.capacity);
  EXPECT_EQ(solver.form().constraints[0].weights, inst.weights);
  EXPECT_TRUE(solver.form().equalities.empty());
}

TEST(HyCimSolver, PublicHeaderIsProblemAgnostic) {
  // The facade never sees the QKP: an equivalent hand-built form produces
  // bit-identical walks.
  const auto inst = small_instance(15, 12);
  ConstrainedQuboForm manual;
  manual.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) manual.q.set(i, j, -static_cast<double>(p));
    }
  }
  manual.constraints.push_back({inst.weights, inst.capacity});

  HyCimSolver from_adapter(cop::to_constrained_form(inst), fast_config(600));
  HyCimSolver from_manual(manual, fast_config(600));
  qubo::BitVector x0(inst.n, 0);
  const auto a = from_adapter.solve(x0, 99);
  const auto b = from_manual.solve(x0, 99);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_energy, b.best_energy);
}

TEST(HyCimSolver, ReprogramKeepsSolvingInIdealCorner) {
  const auto inst = small_instance(14, 12);
  HyCimConfig config = fast_config(1000);
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto before = cop::solve_qkp_from_random(solver, inst, 4);
  solver.reprogram();
  const auto after = cop::solve_qkp_from_random(solver, inst, 4);
  EXPECT_EQ(before.profit, after.profit);
}

// Full-circuit chip with hardware filters and realistic device corners, so
// reprogramming visibly moves both the filter matchline and the energies.
HyCimConfig circuit_chip_config() {
  HyCimConfig config;
  config.sa.iterations = 300;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = FilterMode::kHardware;
  config.vmv.adc.bits = 8;
  return config;
}

/// What a chip's programming determines for input `x`: the filter's bound
/// and full-evaluation matchline, the circuit energy, and the stored cells.
struct ChipReadout {
  double bound_ml = 0.0;
  double ml = 0.0;
  double energy = 0.0;
  std::vector<int> levels;
  bool operator==(const ChipReadout&) const = default;
};

ChipReadout read_chip(HyCimSolver& chip, const qubo::BitVector& x) {
  ChipReadout out;
  cim::FilterBank& bank = *chip.filter_bank();
  bank.bind(x);
  out.bound_ml = bank.bound_ml(0);
  out.ml = bank.ml_voltage(0, x);
  bank.unbind();
  out.energy = chip.engine().energy(x);
  const cim::FilterArray& array = bank.filter(0).working_array();
  for (std::size_t row = 0; row < array.rows(); ++row) {
    for (std::size_t col = 0; col < array.columns(); ++col) {
      out.levels.push_back(array.cell_level(row, col));
    }
  }
  return out;
}

TEST(HyCimSolver, CloneReprogramLeavesPrototypeAndSiblingUnchanged) {
  const auto inst = small_instance(15, 8);
  HyCimSolver proto(cop::to_constrained_form(inst), circuit_chip_config());
  util::Rng rng(3);
  const auto x = cop::random_feasible(inst, rng);
  HyCimSolver sibling(proto, 21);
  HyCimSolver reprogrammed(proto, 22);
  const ChipReadout before = read_chip(proto, x);
  ASSERT_EQ(read_chip(sibling, x), before);

  reprogrammed.reprogram();
  const ChipReadout moved = read_chip(reprogrammed, x);
  EXPECT_NE(moved.ml, before.ml);
  EXPECT_EQ(moved.levels, before.levels);  // same levels, fresh C2C noise
  EXPECT_EQ(read_chip(proto, x), before);
  EXPECT_EQ(read_chip(sibling, x), before);
  // A clone taken after a sibling's reprogram still sees the original.
  HyCimSolver late(proto, 23);
  EXPECT_EQ(read_chip(late, x), before);
}

TEST(HyCimSolver, ReprogrammedCloneEqualsReprogrammedRefabrication) {
  const auto inst = small_instance(16, 8);
  const auto form = cop::to_constrained_form(inst);
  HyCimConfig config = circuit_chip_config();
  const HyCimSolver proto(form, config);
  HyCimSolver clone(proto, 31);
  config.filter.decision_seed = 31;
  HyCimSolver fresh(form, config);
  clone.reprogram();
  fresh.reprogram();
  util::Rng rng(4);
  const auto x0 = cop::random_feasible(inst, rng);
  EXPECT_EQ(read_chip(clone, x0), read_chip(fresh, x0));
  const auto a = clone.solve(x0, 5);
  const auto b = fresh.solve(x0, 5);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.sa.rejected_infeasible, b.sa.rejected_infeasible);
}

TEST(HyCimSolver, CloneEqualsRefabricationWithSameDecisionSeed) {
  const auto inst = small_instance(17, 8);
  const auto form = cop::to_constrained_form(inst);
  HyCimConfig config = circuit_chip_config();
  const HyCimSolver proto(form, config);
  HyCimSolver clone(proto, 41);
  config.filter.decision_seed = 41;
  HyCimSolver fresh(form, config);
  util::Rng rng(5);
  const auto x0 = cop::random_feasible(inst, rng);
  const auto a = clone.solve(x0, 6);
  const auto b = fresh.solve(x0, 6);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.sa.rejected_infeasible, b.sa.rejected_infeasible);
  EXPECT_EQ(read_chip(clone, x0), read_chip(fresh, x0));
}

}  // namespace
}  // namespace hycim::core
