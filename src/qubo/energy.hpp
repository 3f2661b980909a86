// Incremental QUBO energy evaluation.
//
// Simulated annealing proposes single-bit flips; evaluating xᵀQx from
// scratch is O(n²) while the flip delta is O(1) once per-bit local fields
// are maintained.  IncrementalEvaluator keeps, for every bit k,
//
//   phi_k = q_kk + Σ_{i<k} q_ik x_i + Σ_{j>k} q_kj x_j
//
// so the energy change of flipping bit k is (1 − 2 x_k)·phi_k.  Accepting a
// flip updates the other bits' fields — O(n) under the dense kernel, or
// O(degree(k)) under the sparse kernel, which walks the matrix's
// NeighborIndex and touches only true neighbors.  The skipped terms are
// exact zeros, so the two kernels produce bit-identical fields, energies,
// and deltas; sparsity changes cost, never trajectories.  This mirrors the
// digital SA logic that drives the CiM crossbar in paper Fig. 6(b) while
// staying exact.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qubo/dense_rows.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"
#include "qubo/word_state.hpp"

namespace hycim::qubo {

namespace kernels {

/// The word-parallel dense flip kernel, shared by IncrementalEvaluator and
/// the batched replica problems (anneal::QuboReplicaBatch): one contiguous
/// branch-free pass phi[j] += sign·row[j] over the mirror row of the
/// flipped bit.  row[k] is zero by DenseRows construction, but phi[k] is
/// saved and restored around the pass so the flipped bit's own field is
/// untouched bit-for-bit (adding ±0.0 could flip a -0.0) — with that, the
/// pass performs exactly the adds of the scalar two-loop kernel it
/// replaces, making it bit-identical while auto-vectorizing cleanly.
inline void dense_flip(double* phi, const double* row, std::size_t n,
                       std::size_t k, double sign) {
  const double saved = phi[k];
  for (std::size_t j = 0; j < n; ++j) phi[j] += sign * row[j];
  phi[k] = saved;
}

/// dense_flip of bit i (sign si) then of bit j (sign sj) fused into one
/// pass, shared like dense_flip.  Every field receives the same two adds
/// in the same order; the flipped bits' own fields take only the other
/// bit's coupling, as the saved/restored passes leave them.  `energy`
/// takes delta(i), then delta(j) against bit j's field after the first
/// flip — bit-identical to the two flips.
inline void dense_flip_pair(double* phi, double& energy, const double* row_i,
                            const double* row_j, std::size_t n,
                            std::size_t i, std::size_t j, double si,
                            double sj) {
  const double phi_i = phi[i];
  const double phi_j = phi[j] + si * row_i[j];
  energy += si * phi_i;
  energy += sj * phi_j;
  for (std::size_t m = 0; m < n; ++m) {
    phi[m] = (phi[m] + si * row_i[m]) + sj * row_j[m];
  }
  phi[i] = phi_i + sj * row_j[i];
  phi[j] = phi_j;
}

/// The sparse O(degree) flip kernel (PR 5), here for symmetry.
inline void sparse_flip(double* phi, const NeighborIndex& index,
                        std::size_t k, double sign) {
  for (const auto& link : index.neighbors(k)) {
    phi[link.index] += sign * link.value;
  }
}

/// Dense local-field rebuild for one bit: phi_k = q_kk + Σ q_kj·x_j over
/// the set bits of the packed state (bit k masked out), scanned in
/// ascending order — the same adds, in the same order, as the guarded
/// byte loop, hence bit-identical.
inline double dense_field(const DenseRows& rows, const WordState& words,
                          std::size_t k) {
  double s = rows.diagonal(k);
  const double* row = rows.row(k);
  words.for_each_set_except(k, [&](std::size_t j) { s += row[j]; });
  return s;
}

}  // namespace kernels

/// Tracks the energy of an evolving assignment under a fixed QUBO matrix.
class IncrementalEvaluator {
 public:
  /// Binds to `q` (held by reference; `q` must outlive the evaluator) and
  /// initializes the state to `x0`.  `kernel` selects the per-flip update
  /// kernel: kDense walks full rows, kSparse walks q.neighbor_index()
  /// (snapshotted here — the index builds once per matrix and is shared
  /// across evaluators and resets), kAuto resolves from q.density().
  IncrementalEvaluator(const QuboMatrix& q, BitVector x0,
                       Kernel kernel = Kernel::kDense);

  /// Current assignment.
  const BitVector& state() const { return x_; }

  /// Current energy xᵀQx + offset.
  double energy() const { return energy_; }

  /// The kernel this evaluator runs (kDense or kSparse, never kAuto).
  Kernel kernel() const { return kernel_; }

  /// Energy change if bit k were flipped (state unchanged).  O(1).
  double delta(std::size_t k) const;

  /// Energy change if bits i and j (i != j) were both flipped.  O(1):
  /// delta(i) + delta(j) + q_ij·(1−2x_i)(1−2x_j), the coupling correction
  /// accounting for the joint flip.  Used for swap moves in SA.
  double delta_pair(std::size_t i, std::size_t j) const;

  /// Flips bit k, updating energy and all local fields.  O(n) dense,
  /// O(degree(k)) sparse.
  void flip(std::size_t k);

  /// Flips bits i and j (i != j); bit-identical to flip(i); flip(j).  One
  /// O(n) pass dense, two O(degree) walks sparse.
  void flip_pair(std::size_t i, std::size_t j);

  /// Replaces the whole assignment and recomputes the fields — O(n²)
  /// dense; under the sparse kernel the rebuild reuses the bound matrix's
  /// neighbor index instead of re-deriving the structure, so a reset costs
  /// O(n + nnz).
  void reset(BitVector x0);

  /// Recomputed-from-scratch energy of the current state (for testing).
  double recompute() const;

 private:
  void rebuild_fields();

  const QuboMatrix* q_;
  Kernel kernel_ = Kernel::kDense;
  /// Sparse-kernel adjacency snapshot (null under the dense kernel).
  /// Shared with the matrix's cache: a later mutation of the matrix
  /// replaces the cache but cannot dangle this snapshot — it only goes
  /// stale, which the check_incremental cross-checks detect.
  std::shared_ptr<const NeighborIndex> index_;
  /// Dense-kernel mirror snapshot (null under the sparse kernel).  Same
  /// sharing/staleness contract as index_.
  std::shared_ptr<const DenseRows> rows_;
  BitVector x_;
  /// Word-packed shadow of x_, maintained on every flip/reset; feeds the
  /// word-parallel rebuild scans.
  WordState words_;
  std::vector<double> phi_;
  double energy_ = 0.0;
};

}  // namespace hycim::qubo
