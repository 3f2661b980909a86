// Physical FeFET CiM crossbar array (paper Fig. 6(a), Fig. 7).
//
// An R×C grid of binary 1FeFET1R cells.  A computation applies the input
// vector to the word lines (gates) and drives the selected columns' drain
// lines; the column current is the sum of the ON cells' regulated currents:
//
//   I_col(j) = Σ_i  x_i · bit_ij · I_cell(i,j)
//
// which is the single-transistor multiplication i = x · q · y of Fig. 2(c)
// accumulated down a column.  Per-cell currents (with all device variation
// baked in) are cached after programming, so column evaluation is a sparse
// sum — equivalent to, but much faster than, re-evaluating device models.
// The programmed cells and those caches form one immutable block shared
// by every copy of the array; reprogram() and age() build a private block.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "device/cell_1f1r.hpp"
#include "device/variation.hpp"
#include "util/rng.hpp"

namespace hycim::cim {

/// Electrical configuration of a crossbar.
struct CrossbarParams {
  double v_dl = 0.5;        ///< drain-line drive voltage [V]
  double r_series = 500e3;  ///< per-cell series resistor [ohm]
  device::FeFetParams fefet = binary_fefet();

  /// Binary device corner (2 levels) used by crossbar cells.
  static device::FeFetParams binary_fefet();
};

/// A programmed binary crossbar.  Copies share the programmed block, so a
/// copy costs O(1) instead of O(rows · cols).
class CrossbarArray {
 public:
  /// Fabricates an R×C array and programs `bits` (row-major R*C, 0/1).
  CrossbarArray(const CrossbarParams& params, std::size_t rows,
                std::size_t cols, std::span<const std::uint8_t> bits,
                device::VariationModel& fab);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Analog current of column `col` with row inputs `x_rows` applied to the
  /// word lines and the column's drain line driven [A].
  double column_current(std::span<const std::uint8_t> x_rows,
                        std::size_t col) const;

  /// Change in column `col`'s current when row `row`'s word line toggles
  /// from 0 to 1 (ON current minus leakage of that cell) [A].  The hook the
  /// incremental VMV evaluator uses: a single-bit input flip shifts every
  /// column's current by exactly this much, so cached column currents can
  /// be updated without re-summing the whole column.
  double row_toggle_delta(std::size_t row, std::size_t col) const {
    return programmed_->toggle_current[row * cols_ + col];
  }

  /// Row `row` of the toggle deltas (ON − leak per column, contiguous,
  /// length cols()).  A single-bit input flip on row k shifts every
  /// column's current by exactly toggle_row(k)[col], so the VMV engine's
  /// dense per-flip update is one contiguous fma pass over this row.
  const double* toggle_row(std::size_t row) const {
    return programmed_->toggle_current.data() + row * cols_;
  }

  /// Current with `count` arbitrary cells of column 0..cols-1 activated —
  /// the Fig. 7(d) linearity experiment: activates the first `count`
  /// programmed cells in row-major order and sums their currents.
  double activated_cells_current(std::size_t count) const;

  /// Nominal single-cell ON current used to calibrate the ADC LSB [A].
  double nominal_cell_current() const;

  /// Re-programs every cell with fresh cycle-to-cycle noise (the Fig. 7(f)
  /// erase-and-reprogram experiment).  Affects this array only; copies
  /// keep their cells.
  void reprogram(util::Rng& rng);

  /// Ages every cell by `seconds` of retention time and refreshes caches.
  /// Affects this array only.
  void age(double seconds);

  /// The stored bit at (row, col).
  std::uint8_t bit(std::size_t row, std::size_t col) const;

  /// Word-line read voltage applied to gates during compute.
  double read_voltage() const { return v_read_; }

 private:
  /// The stored bits, the programmed cells, and the current caches derived
  /// from them.  Built once per programming and never mutated afterwards,
  /// so copies share it.
  struct Programmed {
    std::vector<std::uint8_t> bits;      // row-major
    std::vector<device::Cell1F1R> cells;  // row-major
    std::vector<double> cell_current;     // cached ON current per cell [A]
    std::vector<double> leak_current;     // cached OFF leakage per cell [A]
    // Column-major mirrors of the two caches (col*rows + row): a column
    // evaluation walks one contiguous stretch per cache instead of
    // striding by cols, which is what lets column_current() auto-vectorize.
    // Same doubles as the row-major caches, copied bit-for-bit.
    std::vector<double> cell_by_col;
    std::vector<double> leak_by_col;
    // ON − leak per cell, row-major — the precomputed row_toggle_delta (the
    // subtraction is done once at cache build; the difference of the same
    // two doubles is the same double every time).
    std::vector<double> toggle_current;
  };

  /// Derives `block`'s current caches from its cells and installs it.
  void install(std::shared_ptr<Programmed> block);

  CrossbarParams params_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double v_read_ = 0.0;
  std::shared_ptr<const Programmed> programmed_;
};

}  // namespace hycim::cim
