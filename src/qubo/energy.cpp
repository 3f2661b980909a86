#include "qubo/energy.hpp"

#include <cassert>
#include <stdexcept>

namespace hycim::qubo {

IncrementalEvaluator::IncrementalEvaluator(const QuboMatrix& q, BitVector x0,
                                           Kernel kernel)
    : q_(&q),
      kernel_(resolve_kernel(kernel, kernel == Kernel::kAuto ? q.density()
                                                             : 0.0)),
      x_(std::move(x0)) {
  if (x_.size() != q.size()) {
    throw std::invalid_argument("IncrementalEvaluator: size mismatch");
  }
  if (kernel_ == Kernel::kSparse) {
    index_ = q.neighbor_index_ptr();
  } else {
    rows_ = q.dense_rows_ptr();
  }
  rebuild_fields();
}

void IncrementalEvaluator::rebuild_fields() {
  const std::size_t n = x_.size();
  phi_.assign(n, 0.0);
  words_.assign(x_);
  if (kernel_ == Kernel::kSparse) {
    // O(n + nnz): the neighbor lists visit exactly the nonzero terms of
    // the dense sums below, in the same (ascending-partner) order, so the
    // rebuilt fields are bit-identical to the dense rebuild.
    for (std::size_t k = 0; k < n; ++k) {
      double s = index_->diagonal(k);
      for (const auto& link : index_->neighbors(k)) {
        if (x_[link.index]) s += link.value;
      }
      phi_[k] = s;
    }
    // The state energy, also O(n + nnz): same term order as
    // QuboMatrix::energy (selected row i: diagonal, then partners j > i
    // ascending), minus the exact-zero additions — bit-identical.
    double e = q_->offset();
    for (std::size_t i = 0; i < n; ++i) {
      if (!x_[i]) continue;
      e += index_->diagonal(i);
      for (const auto& link : index_->neighbors(i)) {
        if (link.index > i && x_[link.index]) e += link.value;
      }
    }
    energy_ = e;
    return;
  } else {
    // Word-parallel dense rebuild: per bit, one set-bit scan over the
    // packed state against the contiguous mirror row.  Same adds in the
    // same ascending order as the guarded at(i, k)/at(k, j) loops —
    // bit-identical — without the per-element triangle index math.
    for (std::size_t k = 0; k < n; ++k) {
      phi_[k] = kernels::dense_field(*rows_, words_, k);
    }
  }
  energy_ = q_->energy(x_);
}

double IncrementalEvaluator::delta(std::size_t k) const {
  assert(k < x_.size());
  return (x_[k] ? -1.0 : 1.0) * phi_[k];
}

double IncrementalEvaluator::delta_pair(std::size_t i, std::size_t j) const {
  assert(i != j);
  const double si = x_[i] ? -1.0 : 1.0;
  const double sj = x_[j] ? -1.0 : 1.0;
  // The mirror holds the exact same double as at(i, j) (i != j here), so
  // reading it skips the triangle index math without changing a bit.
  const double q_ij = rows_ ? rows_->row(i)[j] : q_->at(i, j);
  return delta(i) + delta(j) + si * sj * q_ij;
}

void IncrementalEvaluator::flip(std::size_t k) {
  assert(k < x_.size());
  energy_ += delta(k);
  const double sign = x_[k] ? -1.0 : 1.0;  // +1 when turning the bit on
  x_[k] ^= 1;
  words_.flip(k);
  // Every other bit's field gains/loses the coupling with bit k.  The
  // sparse walk skips exact-zero couplings only (adding ±0.0 is the lone
  // dropped operation) and the dense pass streams the mirror row (phi_k
  // saved/restored inside), so all kernels move phi identically.
  if (kernel_ == Kernel::kSparse) {
    kernels::sparse_flip(phi_.data(), *index_, k, sign);
    return;
  }
  kernels::dense_flip(phi_.data(), rows_->row(k), x_.size(), k, sign);
}

void IncrementalEvaluator::flip_pair(std::size_t i, std::size_t j) {
  assert(i != j);
  if (kernel_ == Kernel::kSparse) {
    flip(i);
    flip(j);
    return;
  }
  const double si = x_[i] ? -1.0 : 1.0;
  const double sj = x_[j] ? -1.0 : 1.0;
  kernels::dense_flip_pair(phi_.data(), energy_, rows_->row(i),
                           rows_->row(j), x_.size(), i, j, si, sj);
  x_[i] ^= 1;
  x_[j] ^= 1;
  words_.flip(i);
  words_.flip(j);
}

void IncrementalEvaluator::reset(BitVector x0) {
  if (x0.size() != q_->size()) {
    throw std::invalid_argument("IncrementalEvaluator::reset: size mismatch");
  }
  x_ = std::move(x0);
  rebuild_fields();
}

double IncrementalEvaluator::recompute() const { return q_->energy(x_); }

}  // namespace hycim::qubo
