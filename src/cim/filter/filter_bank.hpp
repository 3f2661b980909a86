// A bank of inequality filters evaluating several linear constraints
// simultaneously (paper Sec. 3.2 notes that COPs with *multiple* inequality
// constraints — bin packing being the canonical case — generalize the
// single-knapsack setting; each constraint maps to its own working/replica
// array pair, all sharing the input configuration broadcast).
//
// A configuration is feasible iff every filter in the bank accepts it.  In
// hardware the filters evaluate in parallel and their comparator outputs
// are AND-ed; behaviorally we evaluate sequentially but report per-filter
// verdicts so benches can attribute rejections.
//
// Support compression + constraint incidence: constraint i's filter is
// fabricated over only its *support* — the variables with nonzero weight —
// mirroring the physical wiring (a variable is simply not routed into a
// filter it does not constrain).  A per-variable incidence index maps each
// variable to the (filter, local column) pairs it appears in, so the
// bound-state trial/apply hot path touches only the filters whose rows
// contain a flipped bit: O(incidence) per move instead of O(#constraints).
// A filter untouched by a move is not re-measured at all — its matchline
// is unchanged, no comparator decision is drawn — modeling hardware that
// only strobes the filters wired to a changed input.  Note the semantic
// consequence under comparator noise: the unmeasured filter's last
// verdict stands, whereas the pre-incidence path re-drew fresh decision
// noise for *every* filter on *every* proposal (so a borderline state
// could flip verdicts between proposals without any input change).  The
// SA walk keeps the bound state feasible to the fidelity of the measured
// verdicts, exactly as before.  For a fully dense constraint (the paper's
// QKP: every item in the one knapsack row) the compressed bank is
// bit-identical to the uncompressed one — same fabrication, same column
// order, same decision stream consumption.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cim/filter/incidence.hpp"
#include "cim/filter/inequality_filter.hpp"

namespace hycim::cim {

/// One linear inequality ®w·®x <= c over the full variable vector (columns
/// not involved in the constraint carry weight 0).
struct LinearConstraint {
  std::vector<long long> weights;
  long long capacity = 0;
};

/// A parallel bank of inequality filters, one per constraint.
class FilterBank {
 public:
  /// Builds one filter per constraint; all must have weights.size() ==
  /// `variables`.  Filter i is fabricated with fab_seed + i over the
  /// constraint's support columns only.  A capacity beyond what the
  /// support-sized replica array can store (support × per-column maximum)
  /// is clamped to that range — such a constraint is vacuous (capacity >
  /// total support weight) and stays vacuous with the replica's deepest
  /// representable margin; representable capacities pass through
  /// unchanged, so noise margins are untouched.
  FilterBank(const InequalityFilterParams& params,
             const std::vector<LinearConstraint>& constraints,
             std::size_t variables);

  /// "Same chip, fresh measurement" duplicate of `proto`: clones every
  /// fabricated filter (sharing its programmed arrays) and restarts the per-filter comparator noise
  /// streams from fork_seed(decision_seed, i) — the same derivation the
  /// fabricating constructor applies — so a clone is bit-identical to a
  /// refabrication with that decision_seed.  0 keeps the fab-derived
  /// default streams.
  FilterBank(const FilterBank& proto, std::uint64_t decision_seed);

  /// Hardware verdict: true iff every filter accepts `x` (full-width x;
  /// each filter sees its support columns).
  bool is_feasible(std::span<const std::uint8_t> x);

  // --- Bound-state (incremental trial-move) API. ---------------------------

  /// Binds every filter in the bank to configuration `x`.
  void bind(std::span<const std::uint8_t> x);
  /// Drops all bound state.
  void unbind();
  /// Whether the bank is bound.
  bool bound() const;
  /// Incremental verdict for the bound configuration with `flips` toggled.
  /// Only the filters incident to a flipped variable are measured, in
  /// ascending filter order with the usual AND short-circuit; untouched
  /// filters keep their matchline and are not re-decided.  Moves touching
  /// no constraint row return true.
  bool trial_feasible(std::span<const std::size_t> flips);
  /// Commits `flips` into the incident filters' bound state (untouched
  /// filters have no column for the flipped variables — nothing changes).
  void apply(std::span<const std::size_t> flips);

  // --- check_incremental cross-check hooks (global-index views). -----------

  /// Filter i's incremental trial ML for global `flips` [V]; equals its
  /// bound ML when the filter is untouched.  No comparator, no stats.
  double trial_ml(std::size_t i, std::span<const std::size_t> flips) const;
  /// Filter i's bound-state ML [V].
  double bound_ml(std::size_t i) const;
  /// Filter i's full-evaluation ML for a full-width configuration [V].
  double ml_voltage(std::size_t i, std::span<const std::uint8_t> x) const;

  /// Per-filter hardware verdicts (same order as the constraints).
  std::vector<bool> verdicts(std::span<const std::uint8_t> x);

  /// Exact (software) feasibility of all constraints.
  bool exact_feasible(std::span<const std::uint8_t> x) const;

  /// Number of constraints / filters.
  std::size_t size() const { return filters_.size(); }

  /// Number of variables of the full configuration vector.
  std::size_t variables() const { return variables_; }

  /// Access to an individual filter.  Note the filter is compressed: it
  /// has support(i).size() columns, indexed by support position.
  InequalityFilter& filter(std::size_t i) { return filters_.at(i); }

  /// The global variable indices wired into filter i, ascending.
  std::span<const std::uint32_t> support(std::size_t i) const {
    return supports_.at(i);
  }

  /// Whether variable `var` appears (nonzero weight) in constraint i.
  bool touches(std::size_t i, std::size_t var) const;

  /// Total filter evaluations across the bank.
  std::size_t total_evaluations() const;

  /// Re-programs every filter (fresh cycle-to-cycle noise).
  void reprogram();

 private:
  /// Gathers the support columns of filter i out of a full-width x.
  std::span<const std::uint8_t> gather(std::size_t i,
                                       std::span<const std::uint8_t> x) const;

  std::size_t variables_ = 0;
  std::vector<InequalityFilter> filters_;
  std::vector<std::vector<std::uint32_t>> supports_;  ///< filter -> globals
  VariableIncidence incidence_;
  // Reusable scratch (one bank is driven by one walk at a time, like the
  // FilterArray trial scratch).
  mutable std::vector<std::uint8_t> gather_;
};

}  // namespace hycim::cim
