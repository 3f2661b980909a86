#include "anneal/replica_batch.hpp"

#include <stdexcept>

namespace hycim::anneal {

QuboReplicaBatch::QuboReplicaBatch(const qubo::QuboMatrix& q,
                                   std::size_t replicas, qubo::Kernel kernel)
    : q_(&q),
      kernel_(qubo::resolve_kernel(
          kernel, kernel == qubo::Kernel::kAuto ? q.density() : 0.0)),
      n_(q.size()),
      phi_(replicas * n_, 0.0),
      energy_(replicas, 0.0),
      x_(replicas, qubo::BitVector(n_, 0)),
      words_(replicas, qubo::WordState(n_)) {
  if (replicas == 0) {
    throw std::invalid_argument("QuboReplicaBatch: zero replicas");
  }
  if (kernel_ == qubo::Kernel::kSparse) {
    index_ = q.neighbor_index_ptr();
  } else {
    rows_ = q.dense_rows_ptr();
  }
  views_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) views_.emplace_back(this, r);
}

std::vector<SaProblem*> QuboReplicaBatch::problems() {
  std::vector<SaProblem*> ptrs;
  ptrs.reserve(views_.size());
  for (auto& v : views_) ptrs.push_back(&v);
  return ptrs;
}

double QuboReplicaBatch::reset(std::size_t r, const qubo::BitVector& x) {
  if (x.size() != n_) {
    throw std::invalid_argument("QuboReplicaBatch::reset: size mismatch");
  }
  x_[r].assign(x.begin(), x.end());
  words_[r].assign(x_[r]);
  double* fields = phi(r);
  // Bit-for-bit the IncrementalEvaluator rebuild (energy.cpp): same terms,
  // same ascending order, per kernel.
  if (kernel_ == qubo::Kernel::kSparse) {
    for (std::size_t k = 0; k < n_; ++k) {
      double s = index_->diagonal(k);
      for (const auto& link : index_->neighbors(k)) {
        if (x_[r][link.index]) s += link.value;
      }
      fields[k] = s;
    }
    double e = q_->offset();
    for (std::size_t i = 0; i < n_; ++i) {
      if (!x_[r][i]) continue;
      e += index_->diagonal(i);
      for (const auto& link : index_->neighbors(i)) {
        if (link.index > i && x_[r][link.index]) e += link.value;
      }
    }
    energy_[r] = e;
    return e;
  }
  for (std::size_t k = 0; k < n_; ++k) {
    fields[k] = qubo::kernels::dense_field(*rows_, words_[r], k);
  }
  energy_[r] = q_->energy(x_[r]);
  return energy_[r];
}

double QuboReplicaBatch::delta(std::size_t r, std::size_t k) const {
  return (x_[r][k] ? -1.0 : 1.0) * phi_[r * n_ + k];
}

double QuboReplicaBatch::trial_delta(std::size_t r, const Move& m) const {
  if (!m.is_swap()) return delta(r, m.bits[0]);
  const std::size_t i = m.bits[0];
  const std::size_t j = m.bits[1];
  const double si = x_[r][i] ? -1.0 : 1.0;
  const double sj = x_[r][j] ? -1.0 : 1.0;
  const double q_ij = rows_ ? rows_->row(i)[j] : q_->at(i, j);
  return delta(r, i) + delta(r, j) + si * sj * q_ij;
}

void QuboReplicaBatch::flip(std::size_t r, std::size_t k) {
  energy_[r] += delta(r, k);
  const double sign = x_[r][k] ? -1.0 : 1.0;
  x_[r][k] ^= 1;
  words_[r].flip(k);
  if (kernel_ == qubo::Kernel::kSparse) {
    qubo::kernels::sparse_flip(phi(r), *index_, k, sign);
    return;
  }
  qubo::kernels::dense_flip(phi(r), rows_->row(k), n_, k, sign);
}

void QuboReplicaBatch::commit(std::size_t r, const Move& m) {
  if (!m.is_swap() || kernel_ == qubo::Kernel::kSparse) {
    flip(r, m.bits[0]);
    if (m.is_swap()) flip(r, m.bits[1]);
    return;
  }
  const std::size_t i = m.bits[0];
  const std::size_t j = m.bits[1];
  const double si = x_[r][i] ? -1.0 : 1.0;
  const double sj = x_[r][j] ? -1.0 : 1.0;
  qubo::kernels::dense_flip_pair(phi(r), energy_[r], rows_->row(i),
                                 rows_->row(j), n_, i, j, si, sj);
  x_[r][i] ^= 1;
  x_[r][j] ^= 1;
  words_[r].flip(i);
  words_[r].flip(j);
}

}  // namespace hycim::anneal
