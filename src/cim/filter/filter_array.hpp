// Matchline filter array (paper Fig. 4, Fig. 5(a)).
//
// An m×n array of 1FeFET1R cells.  Column i stores item weight w_i
// decomposed over its m cells; all matchlines are tied into one node with
// capacitance C_ML that is precharged to VDD and then discharged during a
// (num_levels-1)-phase staircase read:
//
//   phase p applies Vread_(L-1-p) (ascending amplitude Vread4 → Vread1) to
//   the gates of every column whose input bit x_i = 1; a cell storing level
//   k conducts during exactly k of the phases, so the removed charge — and
//   hence the final ML voltage drop — tracks Σ_i w_i·x_i (Eqs. (7)-(9)).
//
// Within a phase the circuit is linear (ON cells are conductances, OFF
// cells are small saturated current sinks), so the RC discharge has the
// closed form  v(t) = (v0 + I/G)·e^(−G·t/C) − I/G  which is evaluated
// exactly.  The exponential shape *is* the compression the paper alludes to
// ("∫I·dt/C_ML approximately constant" holds only near VDD); because it is
// monotone in the discharged weight, feasibility decisions survive it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/filter/weight_decompose.hpp"
#include "device/cell_1f1r.hpp"
#include "device/variation.hpp"
#include "util/rng.hpp"

namespace hycim::cim {

/// Electrical configuration of a filter array.
struct FilterArrayParams {
  std::size_t rows = 16;        ///< cells per column (m); 16 in the paper
  double v_dd = 2.0;            ///< precharge voltage [V]
  double c_ml = 100e-12;        ///< total matchline capacitance [F]
  double r_series = 500e3;      ///< per-cell series resistor [ohm]
  double t_phase = 11.2e-9;     ///< duration of each read phase [s]
  // Sizing note: one conducting cell-phase removes a fraction
  // g_on*t_phase/C_ML ~ 2.2e-4 of the ML voltage, so the full 16x100 array
  // (max weight 6400) stays inside a 2.0 -> 0.5 V swing — the "choose C_ML
  // and VDD appropriately" condition of paper Eq. (7).
  DecomposeMode decompose = DecomposeMode::kGreedy;
  device::FeFetParams fefet{};  ///< device corner (num_levels = 5)
};

/// One (time, voltage) sample of the ML transient, for waveform benches.
struct MlSample {
  double time_s = 0.0;
  double v_ml = 0.0;
};

/// A programmed m×n filter array with a shared matchline.
///
/// The programmed cells and the per-phase column loads derived from them
/// live in one immutable block that copies share: a copy duplicates only
/// the bound state and the evaluation scratch, O(columns), never the
/// O(rows · columns) cells.  reprogram() and age() build a private block
/// before changing anything, so they never reach another copy.
class FilterArray {
 public:
  /// Fabricates and programs the array for `weights` (one column per item).
  /// Throws if any weight exceeds rows * (num_levels-1).
  FilterArray(const FilterArrayParams& params,
              const std::vector<long long>& weights,
              device::VariationModel& fab);

  /// Number of columns (items).
  std::size_t columns() const { return columns_; }
  /// Number of rows (cells per column).
  std::size_t rows() const { return params_.rows; }

  /// Runs one full evaluation: precharge + staircase phases with input `x`
  /// applied to the column gates.  Returns the final ML voltage [V].
  double evaluate(std::span<const std::uint8_t> x) const;

  // --- Bound-state (incremental trial-move) evaluation. -------------------
  // The SA hot loop evaluates candidates that differ from the current
  // configuration by one or two columns.  bind(x) aggregates the per-phase
  // matchline loads of x once; a trial then adjusts only the touched
  // columns' cached contributions and re-settles the (num_levels-1)-phase
  // transient in O(phases) instead of re-discharging all n columns.
  // bound_voltage() is bit-identical to evaluate(bound_input()): bind()
  // accumulates the per-phase loads in the same column order as the full
  // evaluation.  Trial and committed voltages can drift from a fresh
  // re-sum by float-rounding ulps (vastly below any comparator margin);
  // apply() re-aggregates exactly every kRebindInterval commits to stop
  // the drift from accumulating over long anneals.

  /// Caches the per-phase aggregate loads of configuration `x`.
  void bind(std::span<const std::uint8_t> x);
  /// Drops the bound state.
  void unbind();
  /// Whether a configuration is currently bound.
  bool bound() const { return bound_; }
  /// The bound configuration.
  const std::vector<std::uint8_t>& bound_input() const;
  /// ML voltage of the bound configuration [V] (O(phases)).
  double bound_voltage() const;
  /// ML voltage of the bound configuration with the columns in `flips`
  /// toggled [V] (O(phases · |flips|); the bound state is not modified).
  double trial(std::span<const std::size_t> flips) const;
  /// Toggles `flips` in the bound state, updating the cached aggregates.
  void apply(std::span<const std::size_t> flips);

  /// Commits between exact re-aggregations of the bound loads.
  static constexpr std::size_t kRebindInterval = 64;

  /// Same as evaluate() but records the ML waveform (including the
  /// precharge sample at t=0).  `samples_per_phase` >= 1.
  double evaluate_waveform(std::span<const std::uint8_t> x,
                           std::vector<MlSample>& waveform,
                           int samples_per_phase = 8) const;

  /// Re-programs every cell (erase + write), drawing fresh cycle-to-cycle
  /// noise — models the paper's Fig. 7(f) erase/reprogram experiments.
  /// Affects this array only; copies keep their cells.
  void reprogram(util::Rng& rng);

  /// Ages every cell by `seconds` of retention time (Vth drift) and
  /// refreshes the conductance caches.  Affects this array only.
  void age(double seconds);

  /// Stored level of the cell at (row, column) — for tests.
  int cell_level(std::size_t row, std::size_t col) const;

  /// Sum of stored levels in a column (equals the stored item weight).
  long long column_weight(std::size_t col) const;

  /// Fractional ML drop per unit of weight near VDD:
  /// 1 − exp(−g_on·t_phase/C_ML) with g_on the nominal ON conductance.
  /// Useful for sizing comparator thresholds in tests.
  double nominal_unit_drop_fraction() const;

  /// Number of staircase phases (= num_levels − 1).
  std::size_t phases() const { return read_voltages_.size(); }

  const FilterArrayParams& params() const { return params_; }

 private:
  /// The programmed cells and everything derived from them.  Built once per
  /// programming and never mutated afterwards, so copies share it.
  struct Programmed {
    std::vector<device::Cell1F1R> cells;  // row-major [row * columns + col]
    // Per phase p and column c: summed ON conductance and OFF sink current
    // of the column's cells at that phase's gate voltage.
    std::vector<std::vector<double>> g_cache;     // [phase][col]
    std::vector<std::vector<double>> isat_cache;  // [phase][col]
    std::vector<double> isat_idle;  // per-column sink current at VG = 0
    double isat_idle_total = 0.0;
  };

  double run(std::span<const std::uint8_t> x, std::vector<MlSample>* waveform,
             int samples_per_phase) const;
  /// Derives `block`'s conductance caches from its cells, installs it as
  /// this array's programmed state, and re-aggregates any bound state.
  void install(std::shared_ptr<Programmed> block);
  void rebuild_bound();
  /// Final ML voltage of the staircase read given per-phase aggregate
  /// conductance and sink-current loads — the same closed-form transient
  /// run() evaluates, factored out so full and incremental paths share it.
  double settle(std::span<const double> g, std::span<const double> i_sink)
      const;

  FilterArrayParams params_;
  std::size_t columns_ = 0;
  std::vector<double> read_voltages_;  // ascending phase amplitudes
  std::shared_ptr<const Programmed> programmed_;
  // Bound state: per-phase aggregate loads of bound_x_ plus trial scratch.
  bool bound_ = false;
  std::vector<std::uint8_t> bound_x_;
  std::vector<double> bound_g_;      // [phase]
  std::vector<double> bound_isink_;  // [phase]
  std::size_t commits_since_rebind_ = 0;
  // Per-phase scratch shared by evaluate()/trial(); makes evaluation
  // allocation-free but means one FilterArray must not be evaluated from
  // several threads at once (solver instances are per-run already).
  mutable std::vector<double> trial_g_, trial_isink_;
};

}  // namespace hycim::cim
