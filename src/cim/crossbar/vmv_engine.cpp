#include "cim/crossbar/vmv_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hycim::cim {

VmvEngine::VmvEngine(const VmvEngineParams& params, const qubo::QuboMatrix& q)
    : params_(params),
      n_(q.size()),
      reprogram_rng_(params.fab_seed ^ 0x5bd1e995ULL) {
  auto mapping = std::make_shared<Mapping>();
  mapping->original = q;
  mapping->quantized = quantize(q, params.matrix_bits);
  const QuantizedQubo& quantized = mapping->quantized;
  // Resolve the bound-state kernel from the density of the matrix the
  // hardware actually stores (zeros can only grow under quantization).
  std::size_t nnz = 0;
  for (const long long v : quantized.values) {
    if (v != 0) ++nnz;
  }
  const double density =
      quantized.values.empty()
          ? 0.0
          : static_cast<double>(nnz) /
                static_cast<double>(quantized.values.size());
  kernel_ = qubo::resolve_kernel(params_.kernel, density);

  if (params_.mode == VmvMode::kCircuit &&
      kernel_ == qubo::Kernel::kSparse) {
    // CSR of upper-triangle structural neighbors: row k lists the columns
    // j >= k holding a nonzero quantized value — exactly the cells whose
    // row-toggle delta is a real ON-vs-leak swing rather than a sub-LSB
    // leakage shift.  (Columns j < k store bit 0 at row k by the
    // upper-triangular mapping of Fig. 6(a).)
    auto& offsets = mapping->sp_offsets;
    auto& cols = mapping->sp_cols;
    offsets.assign(n_ + 1, 0);
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t j = k; j < n_; ++j) {
        if (quantized.at(k, j) != 0) ++offsets[k + 1];
      }
    }
    for (std::size_t k = 0; k < n_; ++k) offsets[k + 1] += offsets[k];
    cols.resize(offsets[n_]);
    std::size_t cursor = 0;
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t j = k; j < n_; ++j) {
        if (quantized.at(k, j) != 0) {
          cols[cursor++] = static_cast<std::uint32_t>(j);
        }
      }
    }
  }
  mapping_ = std::move(mapping);
  if (params_.mode != VmvMode::kCircuit) return;

  fab_ = std::make_unique<device::VariationModel>(params_.variation,
                                                  params_.fab_seed);
  // Calibrate the ADC LSB to the nominal cell current once the corner is
  // known; build one positive and one negative crossbar per magnitude bit.
  AdcParams adc = params_.adc;
  for (int b = 0; b < quantized.magnitude_bits; ++b) {
    pos_planes_.emplace_back(params_.crossbar, n_, n_,
                             bit_plane(quantized, b, +1), *fab_);
    neg_planes_.emplace_back(params_.crossbar, n_, n_,
                             bit_plane(quantized, b, -1), *fab_);
  }
  if (!pos_planes_.empty()) {
    adc.i_lsb = pos_planes_.front().nominal_cell_current();
  }
  adc_ = std::make_unique<Adc>(adc, params_.fab_seed * 0x2545F4914F6CDD1DULL);
}

VmvEngine::~VmvEngine() = default;
VmvEngine::VmvEngine(VmvEngine&&) noexcept = default;
VmvEngine& VmvEngine::operator=(VmvEngine&&) noexcept = default;

VmvEngine::VmvEngine(const VmvEngine& other)
    : params_(other.params_),
      n_(other.n_),
      mapping_(other.mapping_),
      pos_planes_(other.pos_planes_),
      neg_planes_(other.neg_planes_),
      fab_(other.fab_
               ? std::make_unique<device::VariationModel>(*other.fab_)
               : nullptr),
      adc_(other.adc_ ? std::make_unique<Adc>(*other.adc_) : nullptr),
      reprogram_rng_(other.reprogram_rng_),
      bound_(other.bound_),
      bound_x_(other.bound_x_),
      currents_(other.currents_),
      bound_acc_(other.bound_acc_),
      commits_since_rebuild_(other.commits_since_rebuild_),
      trial_flips_(other.trial_flips_),
      trial_acc_(other.trial_acc_),
      trial_valid_(other.trial_valid_),
      kernel_(other.kernel_),
      col_acc_(other.col_acc_),
      trial_cols_(other.trial_cols_),
      trial_col_codes_(other.trial_col_codes_) {}

double VmvEngine::energy(std::span<const std::uint8_t> x) {
  if (x.size() != n_) throw std::invalid_argument("VmvEngine::energy: size");
  switch (params_.mode) {
    case VmvMode::kIdeal:
      return mapping_->original.energy(x);
    case VmvMode::kQuantized:
      return mapping_->quantized.energy(x);
    case VmvMode::kCircuit:
      return circuit_energy(x);
  }
  return 0.0;  // unreachable
}

template <typename CurrentFn>
long long VmvEngine::convert_columns(std::span<const std::uint8_t> x,
                                     CurrentFn&& current_of) {
  // For every selected column j (x_j = 1), each bit plane's column current
  // is digitized; codes are shift-added across planes and summed over
  // columns, positive minus negative.  Both the full and the incremental
  // paths convert in this exact order, so the ADC noise stream (and the
  // clip counter) advance identically on either path.
  long long acc = 0;
  const int bits = magnitude_bits();
  for (std::size_t j = 0; j < n_; ++j) {
    if (!x[j]) continue;
    for (int b = 0; b < bits; ++b) {
      const auto p = static_cast<std::size_t>(b);
      const long long pos_code = adc_->convert(current_of(p, j));
      const long long neg_code =
          adc_->convert(current_of(static_cast<std::size_t>(bits) + p, j));
      acc += (pos_code - neg_code) << b;
    }
  }
  return acc;
}

double VmvEngine::circuit_energy(std::span<const std::uint8_t> x) {
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  const long long acc =
      convert_columns(x, [&](std::size_t p, std::size_t j) {
        return p < bits ? pos_planes_[p].column_current(x, j)
                        : neg_planes_[p - bits].column_current(x, j);
      });
  return decode(acc);
}

void VmvEngine::bind(std::span<const std::uint8_t> x) {
  if (params_.mode != VmvMode::kCircuit) {
    throw std::logic_error("VmvEngine::bind: only meaningful in kCircuit");
  }
  if (x.size() != n_) throw std::invalid_argument("VmvEngine::bind: size");
  bound_x_.assign(x.begin(), x.end());
  bound_ = true;
  trial_valid_ = false;
  rebuild_bound_currents();
  if (kernel_ == qubo::Kernel::kSparse) {
    reconvert_all_columns();
    return;
  }
  bound_acc_ = convert_columns(
      bound_x_,
      [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
}

void VmvEngine::reconvert_all_columns() {
  // Same conversion order as convert_columns (ascending selected column,
  // per-plane pos then neg), so bind() digitizes identically under either
  // kernel; additionally records each column's own shift-added code.
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  col_acc_.assign(n_, 0);
  long long acc = 0;
  for (std::size_t j = 0; j < n_; ++j) {
    if (!bound_x_[j]) continue;
    long long cj = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      const long long pos_code = adc_->convert(currents_[b * n_ + j]);
      const long long neg_code =
          adc_->convert(currents_[(bits + b) * n_ + j]);
      cj += (pos_code - neg_code) << b;
    }
    col_acc_[j] = cj;
    acc += cj;
  }
  bound_acc_ = acc;
}

void VmvEngine::collect_affected(std::span<const std::size_t> flips) {
  const Mapping& m = *mapping_;
  affected_.clear();
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine: bit out of range");
    }
    affected_.push_back(k);
    for (std::size_t e = m.sp_offsets[k]; e < m.sp_offsets[k + 1]; ++e) {
      affected_.push_back(m.sp_cols[e]);
    }
  }
  std::sort(affected_.begin(), affected_.end());
  affected_.erase(std::unique(affected_.begin(), affected_.end()),
                  affected_.end());
}

double VmvEngine::trial_sparse(std::span<const std::size_t> flips) {
  const QuantizedQubo& quantized = mapping_->quantized;
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  collect_affected(flips);
  long long acc = bound_acc_;
  trial_col_codes_.clear();
  for (const std::size_t j : affected_) {
    bool flipped = false;
    for (const std::size_t k : flips) flipped ^= (k == j);
    const bool was = bound_x_[j] != 0;
    const bool now = was != flipped;
    if (was) acc -= col_acc_[j];
    long long cj = 0;
    if (now) {
      for (std::size_t b = 0; b < bits; ++b) {
        double pos = currents_[b * n_ + j];
        double neg = currents_[(bits + b) * n_ + j];
        for (const std::size_t k : flips) {
          if (k > j || quantized.at(k, j) == 0) continue;
          const double sign = bound_x_[k] ? -1.0 : 1.0;
          pos += sign * pos_planes_[b].row_toggle_delta(k, j);
          neg += sign * neg_planes_[b].row_toggle_delta(k, j);
        }
        cj += (adc_->convert(pos) - adc_->convert(neg)) << b;
      }
      acc += cj;
    }
    trial_col_codes_.push_back(cj);
  }
  trial_cols_.assign(affected_.begin(), affected_.end());
  trial_flips_.assign(flips.begin(), flips.end());
  trial_acc_ = acc;
  trial_valid_ = true;
  return decode(acc);
}

void VmvEngine::apply_sparse(std::span<const std::size_t> flips) {
  const Mapping& m = *mapping_;
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  const bool adopt_trial =
      trial_valid_ && std::equal(flips.begin(), flips.end(),
                                 trial_flips_.begin(), trial_flips_.end());
  // Update the tracked currents of the structurally affected columns, then
  // toggle the flipped rows into the bound state.
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine::apply: bit out of range");
    }
    const double sign = bound_x_[k] ? -1.0 : 1.0;
    for (std::size_t e = m.sp_offsets[k]; e < m.sp_offsets[k + 1]; ++e) {
      const std::size_t j = m.sp_cols[e];
      for (std::size_t b = 0; b < bits; ++b) {
        currents_[b * n_ + j] += sign * pos_planes_[b].row_toggle_delta(k, j);
        currents_[(bits + b) * n_ + j] +=
            sign * neg_planes_[b].row_toggle_delta(k, j);
      }
    }
    bound_x_[k] ^= 1;
  }
  if (adopt_trial) {
    for (std::size_t t = 0; t < trial_cols_.size(); ++t) {
      const std::size_t j = trial_cols_[t];
      col_acc_[j] = bound_x_[j] ? trial_col_codes_[t] : 0;
    }
    bound_acc_ = trial_acc_;
  } else {
    collect_affected(flips);
    for (const std::size_t j : affected_) {
      bound_acc_ -= col_acc_[j];
      long long cj = 0;
      if (bound_x_[j]) {
        for (std::size_t b = 0; b < bits; ++b) {
          const long long pos_code = adc_->convert(currents_[b * n_ + j]);
          const long long neg_code =
              adc_->convert(currents_[(bits + b) * n_ + j]);
          cj += (pos_code - neg_code) << b;
        }
        bound_acc_ += cj;
      }
      col_acc_[j] = cj;
    }
  }
  trial_valid_ = false;
  if (++commits_since_rebuild_ >= kCurrentRebuildInterval) {
    // Pull the tracked currents back to the exact device model (leakage
    // shifts included) and re-digitize, bounding both float drift and the
    // sparse model's leak approximation.
    rebuild_bound_currents();
    reconvert_all_columns();
  }
}

void VmvEngine::rebuild_bound_currents() {
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  currents_.resize(2 * bits * n_);
  for (std::size_t p = 0; p < bits; ++p) {
    for (std::size_t j = 0; j < n_; ++j) {
      currents_[p * n_ + j] = pos_planes_[p].column_current(bound_x_, j);
      currents_[(bits + p) * n_ + j] =
          neg_planes_[p].column_current(bound_x_, j);
    }
  }
  commits_since_rebuild_ = 0;
}

void VmvEngine::unbind() {
  bound_ = false;
  trial_valid_ = false;
  bound_x_.clear();
  currents_.clear();
}

double VmvEngine::bound_energy() const {
  if (!bound_) throw std::logic_error("VmvEngine::bound_energy: not bound");
  return decode(bound_acc_);
}

const std::vector<std::uint8_t>& VmvEngine::bound_input() const {
  if (!bound_) throw std::logic_error("VmvEngine::bound_input: not bound");
  return bound_x_;
}

double VmvEngine::trial(std::span<const std::size_t> flips) {
  if (!bound_) throw std::logic_error("VmvEngine::trial: not bound");
  if (kernel_ == qubo::Kernel::kSparse) return trial_sparse(flips);
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  trial_x_.assign(bound_x_.begin(), bound_x_.end());
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine::trial: bit out of range");
    }
    trial_x_[k] ^= 1;
  }
  const long long acc =
      convert_columns(trial_x_, [&](std::size_t p, std::size_t j) {
        double current = currents_[p * n_ + j];
        const CrossbarArray& plane =
            p < bits ? pos_planes_[p] : neg_planes_[p - bits];
        for (const std::size_t k : flips) {
          const double sign = bound_x_[k] ? -1.0 : 1.0;
          current += sign * plane.row_toggle_delta(k, j);
        }
        return current;
      });
  trial_flips_.assign(flips.begin(), flips.end());
  trial_acc_ = acc;
  trial_valid_ = true;
  return decode(acc);
}

void VmvEngine::apply(std::span<const std::size_t> flips) {
  if (!bound_) throw std::logic_error("VmvEngine::apply: not bound");
  if (kernel_ == qubo::Kernel::kSparse) {
    apply_sparse(flips);
    return;
  }
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  const bool adopt_trial =
      trial_valid_ && std::equal(flips.begin(), flips.end(),
                                 trial_flips_.begin(), trial_flips_.end());
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine::apply: bit out of range");
    }
    const double sign = bound_x_[k] ? -1.0 : 1.0;
    // Contiguous fma passes over the flipped row's precomputed toggle
    // deltas (same doubles row_toggle_delta returns, so the tracked
    // currents move bit-identically to the strided per-cell walk).
    for (std::size_t p = 0; p < bits; ++p) {
      const double* pos_t = pos_planes_[p].toggle_row(k);
      const double* neg_t = neg_planes_[p].toggle_row(k);
      double* pos_c = currents_.data() + p * n_;
      double* neg_c = currents_.data() + (bits + p) * n_;
      for (std::size_t j = 0; j < n_; ++j) {
        pos_c[j] += sign * pos_t[j];
        neg_c[j] += sign * neg_t[j];
      }
    }
    bound_x_[k] ^= 1;
  }
  if (adopt_trial) {
    bound_acc_ = trial_acc_;
  } else {
    bound_acc_ = convert_columns(
        bound_x_,
        [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
  }
  trial_valid_ = false;
  if (++commits_since_rebuild_ >= kCurrentRebuildInterval) {
    rebuild_bound_currents();
  }
}

void VmvEngine::reprogram() {
  for (auto& plane : pos_planes_) plane.reprogram(reprogram_rng_);
  for (auto& plane : neg_planes_) plane.reprogram(reprogram_rng_);
  if (bound_) {
    // The stored conductances changed under the bound state: refresh the
    // cached currents and re-digitize the bound configuration.
    trial_valid_ = false;
    rebuild_bound_currents();
    if (kernel_ == qubo::Kernel::kSparse) {
      reconvert_all_columns();
    } else {
      bound_acc_ = convert_columns(
          bound_x_,
          [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
    }
  }
}

std::size_t VmvEngine::adc_clips() const {
  return adc_ ? adc_->clip_count() : 0;
}

}  // namespace hycim::cim
