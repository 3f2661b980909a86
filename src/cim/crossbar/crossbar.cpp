#include "cim/crossbar/crossbar.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hycim::cim {

device::FeFetParams CrossbarParams::binary_fefet() {
  device::FeFetParams p;
  p.num_levels = 2;  // erased (bit 0) vs fully programmed (bit 1)
  return p;
}

CrossbarArray::CrossbarArray(const CrossbarParams& params, std::size_t rows,
                             std::size_t cols,
                             std::span<const std::uint8_t> bits,
                             device::VariationModel& fab)
    : params_(params), rows_(rows), cols_(cols) {
  if (bits.size() != rows * cols) {
    throw std::invalid_argument("CrossbarArray: bits size mismatch");
  }
  if (params_.fefet.num_levels != 2) {
    throw std::invalid_argument("CrossbarArray: needs a binary device corner");
  }
  v_read_ = device::FeFet::read_voltage(params_.fefet, 1);

  device::CellParams cell_params;
  cell_params.r_series = params_.r_series;
  cell_params.v_dd = params_.v_dl;

  auto block = std::make_shared<Programmed>();
  block->bits.assign(bits.begin(), bits.end());
  auto devices = fab.fabricate(params_.fefet, rows * cols);
  block->cells.reserve(devices.size());
  for (std::size_t k = 0; k < devices.size(); ++k) {
    block->cells.emplace_back(std::move(devices[k]), cell_params,
                              fab.resistor_factor());
    block->cells.back().program(block->bits[k] ? 1 : 0, fab.rng());
  }
  install(std::move(block));
}

void CrossbarArray::install(std::shared_ptr<Programmed> block) {
  const std::size_t cells = block->cells.size();
  block->cell_current.assign(cells, 0.0);
  block->leak_current.assign(cells, 0.0);
  for (std::size_t k = 0; k < cells; ++k) {
    block->cell_current[k] = block->cells[k].current(v_read_, params_.v_dl);
    block->leak_current[k] = block->cells[k].current(0.0, params_.v_dl);
  }
  block->cell_by_col.assign(cells, 0.0);
  block->leak_by_col.assign(cells, 0.0);
  block->toggle_current.assign(cells, 0.0);
  for (std::size_t row = 0; row < rows_; ++row) {
    for (std::size_t col = 0; col < cols_; ++col) {
      const std::size_t k = row * cols_ + col;
      block->cell_by_col[col * rows_ + row] = block->cell_current[k];
      block->leak_by_col[col * rows_ + row] = block->leak_current[k];
      block->toggle_current[k] =
          block->cell_current[k] - block->leak_current[k];
    }
  }
  programmed_ = std::move(block);
}

double CrossbarArray::column_current(std::span<const std::uint8_t> x_rows,
                                     std::size_t col) const {
  assert(x_rows.size() == rows_);
  assert(col < cols_);
  // Contiguous column-major passes; the ON/leak select stays a select
  // (never `leak + x·(on−leak)`, which would reassociate the float math)
  // so the sum is bit-identical to the strided row-major walk — the
  // accumulation order over rows is unchanged.
  const double* on = programmed_->cell_by_col.data() + col * rows_;
  const double* off = programmed_->leak_by_col.data() + col * rows_;
  double i = 0.0;
  for (std::size_t row = 0; row < rows_; ++row) {
    i += x_rows[row] ? on[row] : off[row];
  }
  return i;
}

double CrossbarArray::activated_cells_current(std::size_t count) const {
  const Programmed& pg = *programmed_;
  double i = 0.0;
  std::size_t activated = 0;
  for (std::size_t k = 0; k < pg.cells.size() && activated < count; ++k) {
    if (pg.bits[k]) {
      i += pg.cell_current[k];
      ++activated;
    }
  }
  return i;
}

double CrossbarArray::nominal_cell_current() const {
  // Nominal (variation-free) regulated ON current at the read overdrive.
  const double overdrive =
      v_read_ - device::FeFet::nominal_vth(params_.fefet, 1);
  const double rch = params_.fefet.rch0 / (1.0 + params_.fefet.gm_lin *
                                                     std::max(0.0, overdrive));
  return params_.v_dl / (params_.r_series + rch);
}

// The two mutators program a private copy of the cells and install it, so
// arrays sharing the old block keep their cells and caches untouched.
void CrossbarArray::reprogram(util::Rng& rng) {
  auto block = std::make_shared<Programmed>();
  block->bits = programmed_->bits;
  block->cells = programmed_->cells;
  for (std::size_t k = 0; k < block->cells.size(); ++k) {
    block->cells[k].program(block->bits[k] ? 1 : 0, rng);
  }
  install(std::move(block));
}

void CrossbarArray::age(double seconds) {
  auto block = std::make_shared<Programmed>();
  block->bits = programmed_->bits;
  block->cells = programmed_->cells;
  for (auto& cell : block->cells) cell.age(seconds);
  install(std::move(block));
}

std::uint8_t CrossbarArray::bit(std::size_t row, std::size_t col) const {
  return programmed_->bits.at(row * cols_ + col);
}

}  // namespace hycim::cim
