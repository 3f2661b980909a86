// Vector-matrix-vector (VMV) QUBO computation engine (paper Sec. 3.4).
//
// Maps a quantized QUBO matrix onto bit-plane crossbars (one positive and
// one negative plane set) and computes E(x) = xᵀQx through column currents:
// the input x is applied to the word lines (xᵀ side) while the same x
// selects/drives the columns (x side); each selected column's current is
// digitized by an ADC and the codes are shift-added across bit planes
// (Fig. 6(a): "Add Shift Sum").
//
// Three fidelity modes let callers trade accuracy modelling for speed:
//   kIdeal      — exact double-precision energy of the *original* matrix;
//   kQuantized  — exact energy of the *quantized* matrix (the dominant
//                 hardware effect; fast enough for SA-in-the-loop);
//   kCircuit    — full per-cell current + ADC path (used for validation
//                 and the chip-level experiments of Fig. 7).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/crossbar/adc.hpp"
#include "cim/crossbar/bit_slice.hpp"
#include "cim/crossbar/crossbar.hpp"
#include "device/variation.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::cim {

/// Evaluation fidelity of the engine.
enum class VmvMode {
  kIdeal,
  kQuantized,
  kCircuit,
};

/// Engine configuration.
struct VmvEngineParams {
  VmvMode mode = VmvMode::kQuantized;
  int matrix_bits = 7;  ///< quantization budget, ⌈log2 (Qij)MAX⌉ for exact
  AdcParams adc{};      ///< per-column ADC corner (kCircuit only)
  CrossbarParams crossbar{};            ///< cell corner (kCircuit only)
  device::VariationParams variation{};  ///< fabrication corners
  std::uint64_t fab_seed = 7;
  /// Bound-state trial/apply kernel (kCircuit only): kAuto resolves from
  /// the quantized matrix's density.  The sparse kernel caches per-column
  /// ADC codes and reconverts only the columns a flip structurally
  /// touches — O(degree·bits) conversions per trial instead of
  /// O(n·bits) — treating the sub-LSB leakage shift of zero cells as
  /// invariant (the dense path, kept as the full-recompute oracle under
  /// check_incremental, models those leaks exactly).
  qubo::Kernel kernel = qubo::Kernel::kAuto;
};

/// A programmed VMV engine for one QUBO matrix.
class VmvEngine {
 public:
  /// Quantizes `q` and, in kCircuit mode, fabricates and programs the
  /// bit-plane crossbars.
  VmvEngine(const VmvEngineParams& params, const qubo::QuboMatrix& q);

  ~VmvEngine();
  VmvEngine(VmvEngine&&) noexcept;
  VmvEngine& operator=(VmvEngine&&) noexcept;

  /// Copy: shares the mapped matrices and the crossbars' programmed cells
  /// and current caches (see CrossbarArray), and duplicates the ADC with
  /// its noise stream, the reprogramming stream, and the bound state —
  /// O(columns), not O(cells).  A copy
  /// behaves exactly like re-fabricating with the same seeds, minus the
  /// fabrication cost — the "program once, solve many" hook for batch
  /// protocols — and its reprogram() never reaches the original.
  VmvEngine(const VmvEngine& other);

  /// QUBO energy of configuration `x` at the configured fidelity
  /// (original-matrix units; includes the matrix's constant offset).
  double energy(std::span<const std::uint8_t> x);

  // --- Bound-state (incremental trial-move) evaluation, kCircuit mode. -----
  // A full circuit energy() re-sums every cell of every selected column:
  // O(n² · bits).  For SA, successive candidates differ by one or two bits,
  // and a bit flip shifts each column's analog current by exactly that
  // row's cell-vs-leak difference.  bind(x) caches all column currents
  // once; trial() then adjusts the touched rows' contributions and re-runs
  // only the ADC conversions: O(n · bits) per proposal.  Conversions happen
  // in the same column/plane order as energy(), so with a noiseless ADC the
  // trial result equals a full recompute of the candidate (energy() stays
  // available as the cross-check oracle), and with ADC noise the stream
  // advances exactly as a full evaluation would.
  // kIdeal/kQuantized callers keep using qubo::IncrementalEvaluator; these
  // methods throw std::logic_error outside kCircuit mode.

  /// Caches per-column analog currents and the energy of `x`.
  void bind(std::span<const std::uint8_t> x);
  /// Drops the bound state.
  void unbind();
  /// Whether a configuration is bound.
  bool bound() const { return bound_; }
  /// Energy of the bound configuration (original-matrix units).
  double bound_energy() const;
  /// The bound configuration.
  const std::vector<std::uint8_t>& bound_input() const;
  /// Energy of the bound configuration with the bits in `flips` toggled
  /// (bound state unchanged).  The result is memoized so an immediately
  /// following apply() of the same flips adopts it without reconverting.
  double trial(std::span<const std::size_t> flips);
  /// Commits `flips` into the bound state, updating the cached currents.
  void apply(std::span<const std::size_t> flips);

  /// Commits between exact recomputations of the cached column currents
  /// (bounds float drift from repeated incremental updates).
  static constexpr std::size_t kCurrentRebuildInterval = 64;

  /// Number of variables.
  std::size_t size() const { return n_; }

  /// The quantized matrix actually mapped to the hardware.
  const QuantizedQubo& quantized() const { return mapping_->quantized; }

  /// Magnitude bits per element stored in the crossbars.
  int magnitude_bits() const { return mapping_->quantized.magnitude_bits; }

  /// The resolved bound-state kernel (kDense or kSparse, never kAuto).
  qubo::Kernel kernel() const { return kernel_; }

  /// Re-programs all crossbars with fresh cycle-to-cycle noise
  /// (kCircuit mode; the Fig. 7(f) erase/reprogram experiment).
  void reprogram();

  /// Total full-scale ADC clips across all conversions so far.
  std::size_t adc_clips() const;

  const VmvEngineParams& params() const { return params_; }

 private:
  double circuit_energy(std::span<const std::uint8_t> x);
  /// Original-matrix energy of a shift-added code sum.
  double decode(long long acc) const {
    return static_cast<double>(acc) * mapping_->quantized.scale +
           mapping_->quantized.offset;
  }
  void rebuild_bound_currents();
  /// Sparse kernel: (re)digitizes every selected column from the cached
  /// currents, refreshing col_acc_ and bound_acc_ (same conversion order
  /// as the dense path).
  void reconvert_all_columns();
  /// Sparse kernel: the sorted unique set of columns whose current or
  /// selection changes under `flips` — each flipped column itself plus the
  /// upper-triangle structural neighbors of every flipped row.
  void collect_affected(std::span<const std::size_t> flips);
  double trial_sparse(std::span<const std::size_t> flips);
  void apply_sparse(std::span<const std::size_t> flips);
  /// Shift-added ADC accumulation over the candidate's selected columns,
  /// reading analog currents through `current_of(plane_index, col)` where
  /// plane_index runs over [0, bits) positive then [bits, 2·bits) negative.
  template <typename CurrentFn>
  long long convert_columns(std::span<const std::uint8_t> x,
                            CurrentFn&& current_of);

  /// The matrices the engine maps and what is derived from them alone:
  /// immutable once built, so copies share it.  The sparse kernel's CSR of
  /// upper-triangle structural neighbors (per row k: columns j >= k with
  /// quantized value != 0) is built in kCircuit mode only.
  struct Mapping {
    qubo::QuboMatrix original;
    QuantizedQubo quantized;
    std::vector<std::size_t> sp_offsets;
    std::vector<std::uint32_t> sp_cols;
  };

  VmvEngineParams params_;
  std::size_t n_ = 0;
  std::shared_ptr<const Mapping> mapping_;
  std::vector<CrossbarArray> pos_planes_;  // one crossbar per magnitude bit
  std::vector<CrossbarArray> neg_planes_;
  std::unique_ptr<device::VariationModel> fab_;
  std::unique_ptr<Adc> adc_;
  util::Rng reprogram_rng_;
  // Bound state: analog current of every (plane, column) under bound_x_,
  // positive planes first, then negative: currents_[(p)·n + col].
  bool bound_ = false;
  std::vector<std::uint8_t> bound_x_;
  std::vector<double> currents_;
  long long bound_acc_ = 0;  ///< shift-added code sum of bound_x_
  std::size_t commits_since_rebuild_ = 0;
  // Memoized last trial (flips + code sum) so apply() can adopt it.
  std::vector<std::size_t> trial_flips_;
  long long trial_acc_ = 0;
  bool trial_valid_ = false;
  std::vector<std::uint8_t> trial_x_;  // scratch candidate configuration
  // Sparse-kernel state: resolved kernel, cached per-column shift-added
  // codes of the bound state (0 when the column is unselected), and the
  // memoized per-column codes of the last trial so apply() can adopt them
  // without reconverting.
  qubo::Kernel kernel_ = qubo::Kernel::kDense;
  std::vector<long long> col_acc_;
  std::vector<std::size_t> affected_;        // scratch
  std::vector<std::size_t> trial_cols_;      // memo: affected set
  std::vector<long long> trial_col_codes_;   // memo: their new codes
};

}  // namespace hycim::cim
