// The HyCiM solver facade (paper Fig. 3): inequality-QUBO transformation +
// FeFET filters + FeFET crossbar + SA logic, wired together.
//
// The facade is problem-generic: it is constructed from a
// ConstrainedQuboForm — the one shape every COP lowers to via the
// to_constrained_form() adapters in src/cop/ (QKP, MDKP, bin packing,
// graph coloring, ...) — and knows nothing about the originating problem.
// Each inequality constraint maps to its own inequality-filter array in a
// cim::FilterBank; each equality to a window-comparator equality filter.
//
// Fidelity is configurable on two axes:
//   * the QUBO computation (VmvMode: ideal / quantized / full circuit);
//   * the feasibility check (hardware filters with device noise, or the
//     exact software predicates).
// The defaults — quantized energies + hardware filters — capture the
// dominant hardware effects while staying fast enough to run the paper's
// Sec. 4.3 sweep (thousands of SA runs) on a laptop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "anneal/strategy.hpp"
#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/equality_filter.hpp"
#include "cim/filter/filter_bank.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "core/constrained_form.hpp"
#include "core/solve_status.hpp"
#include "qubo/neighbor_index.hpp"

namespace hycim::core {

/// How the SA loop checks constraint feasibility.
enum class FilterMode {
  kHardware,  ///< FeFET filters (variation + comparator noise)
  kSoftware,  ///< exact predicates ®w·®x ≤ c / ®w·®x = c
};

/// Full HyCiM configuration.
struct HyCimConfig {
  anneal::SaParams sa{};
  /// Which search strategy drives the solve: single-walk SA (the default)
  /// or replica-exchange tempering.  `sa` stays the per-walk schedule and
  /// budget either way — under tempering every replica spends
  /// sa.iterations QUBO computations at its ladder temperature, so a
  /// tempered solve costs replicas × sa.iterations in total.
  anneal::SearchParams search = anneal::SaSearch{};
  cim::VmvMode fidelity = cim::VmvMode::kQuantized;
  int matrix_bits = 7;  ///< crossbar quantization (⌈log2 (Qij)MAX⌉ = 7)
  FilterMode filter_mode = FilterMode::kHardware;
  /// Per-flip kernel of the hot paths (the incremental evaluator's local-
  /// field updates and, in kCircuit fidelity, the VMV engine's bound-state
  /// column reconversions).  kAuto measures the evaluation matrix's
  /// density at fabrication and picks the sparse O(degree) kernel at or
  /// below qubo::kSparseDensityThreshold — the paper's density-25 suites
  /// qualify, density-50 and up stay dense.  kDense / kSparse override the
  /// measurement.  The resolved choice is recorded in SolveResult::kernel;
  /// on the ideal/quantized paths the kernels are bit-identical (sparsity
  /// changes cost, not trajectories).
  qubo::Kernel kernel = qubo::Kernel::kAuto;
  cim::InequalityFilterParams filter{};
  cim::VmvEngineParams vmv{};  ///< mode/matrix_bits overridden by the above
  /// Structure-of-arrays replica state for tempered solves that reduce to
  /// a pure QUBO walk (software filters, no constraints, non-circuit
  /// fidelity, check_incremental off): the replicas share one matrix
  /// snapshot and keep fields/states in contiguous batch arenas
  /// (anneal::QuboReplicaBatch) instead of cloning the whole chip per
  /// replica.  Bit-identical to the cloned-chip path — the views perform
  /// the same float operations through the same kernels — so this is a
  /// layout/throughput knob, not a behavior knob; it exists so tests can
  /// pin that equivalence.  Ineligible solves fall back silently.
  bool soa_replicas = true;
  /// Debug mode: cross-check every incremental trial/commit against a full
  /// recomputation (filter matchline voltages, energies) and throw
  /// std::logic_error on divergence.  O(n²) per SA step — enable in tests
  /// and when validating new device corners, never in production sweeps.
  /// Circuit-mode energy checks are skipped when ADC noise is enabled (a
  /// fresh full evaluation would draw different noise by design).
  bool check_incremental = false;
};

/// Outcome of one solve on the generic facade.  Problem-level scores
/// (QKP profit, bins used, coloring validity, ...) are recovered by the
/// adapter layer from best_x.
struct SolveResult {
  qubo::BitVector best_x;    ///< best configuration found
  double best_energy = 0.0;  ///< its QUBO energy (eval-path units)
  bool feasible = false;     ///< exact feasibility of best_x (all constraints)
  /// kOk for a full-budget run; kCancelled / kDeadlineExceeded when a
  /// cancel token stopped the search at a checkpoint — best_x and the
  /// counters then describe the any-time best-so-far partial result.
  SolveStatus status = SolveStatus::kOk;
  anneal::SaResult sa;       ///< walk counters (summed over replicas when
                             ///< tempering) and optional single-walk trace
  /// Tempering observability (empty under single-walk SA): per-replica
  /// walk/exchange counters and the deterministic exchange trace.
  std::vector<anneal::ReplicaCounters> replicas;
  std::vector<anneal::ExchangeEvent> exchange_trace;
  std::size_t exchanges_proposed = 0;
  std::size_t exchanges_accepted = 0;
  /// Archipelago observability (empty otherwise): per-island stats and the
  /// deterministic migration/resample traces with their exact counters.
  std::vector<anneal::IslandStats> islands;
  std::vector<anneal::MigrationEvent> migration_trace;
  std::vector<anneal::ResampleEvent> resample_trace;
  std::size_t migrations_proposed = 0;
  std::size_t migrations_accepted = 0;
  std::size_t resamples = 0;
  std::size_t respaces = 0;
  /// The per-flip kernel that ran (resolved from HyCimConfig::kernel at
  /// fabrication: kDense or kSparse) — recorded so benches and the perf
  /// trajectory know which kernel produced a timing.
  qubo::Kernel kernel = qubo::Kernel::kDense;
};

/// One fabricated HyCiM instance bound to a constrained QUBO form.
class HyCimSolver {
 public:
  HyCimSolver(const ConstrainedQuboForm& form, const HyCimConfig& config);

  /// "Program once, solve many": clones `proto` without re-running
  /// fabrication and restarts the comparator decision-noise streams from
  /// `decision_seed` (0 keeps the proto's streams).  The clone shares
  /// everything fabrication made immutable — the form, the matrices with
  /// their prebuilt kernel structure, the incidence tables, and every
  /// filter array's and crossbar's programmed cells with their derived
  /// caches — and copies only the comparators, the noise streams, and the
  /// per-array bound state and scratch, so its cost grows with the number
  /// of columns, not cells.  reprogram() on a clone swaps in private cells
  /// and never reaches the proto or a sibling.  Bit-identical to
  /// constructing a fresh solver from (proto.form(), proto config with
  /// filter.decision_seed = decision_seed) — batch protocols use this to
  /// model N independent repeated measurements on one programmed chip
  /// without N fabrications.
  HyCimSolver(const HyCimSolver& proto, std::uint64_t decision_seed);

  ~HyCimSolver();
  HyCimSolver(HyCimSolver&&) noexcept;
  HyCimSolver& operator=(HyCimSolver&&) noexcept;

  /// Runs the configured search strategy (config.search) from the given
  /// initial configuration (must be size() bits and satisfy every
  /// constraint).  `run_seed` drives all run-level randomness — the walk
  /// proposals and, under tempering, the per-replica comparator decision
  /// streams — so repeated calls explore independently.  Tempering clones
  /// this solver once per replica ("program once, temper many") and runs
  /// the replicas serially here; pass an executor to parallelize them.
  SolveResult solve(const qubo::BitVector& x0, std::uint64_t run_seed);

  /// Same solve with replica segments dispatched through `executor`
  /// (anneal::Executor contract) — bit-identical to the serial overload
  /// for any executor, because each replica's work is a pure function of
  /// its forked stream.  Single-walk SA ignores the executor.
  SolveResult solve(const qubo::BitVector& x0, std::uint64_t run_seed,
                    const anneal::Executor& executor);

  /// Same solve with a cooperative cancel token polled at the strategy's
  /// segment / exchange / migration checkpoints.  When it fires, the
  /// result is the any-time best-so-far with SolveResult::status set to
  /// kCancelled or kDeadlineExceeded; an unarmed or never-firing token
  /// leaves the result bit-identical to the overloads above.
  SolveResult solve(const qubo::BitVector& x0, std::uint64_t run_seed,
                    const anneal::Executor& executor,
                    const util::CancelToken& cancel);

  /// The configuration this chip was fabricated with.
  const HyCimConfig& config() const { return config_; }

  /// The per-flip kernel resolved at fabrication (kDense or kSparse —
  /// kAuto is resolved against the measured evaluation-matrix density).
  qubo::Kernel kernel() const { return resolved_kernel_; }

  /// Overrides the solve-time knobs — `sa`, `search`, `check_incremental`
  /// (exactly the fields service::solve_key() hashes) — leaving the
  /// fabricated hardware untouched.  When the fabrication fields of
  /// `config` match this chip's (the chip cache guarantees that), the
  /// retargeted solver is indistinguishable from one fabricated with
  /// `config` from scratch; this is what lets one cached programmed chip
  /// serve many schedules.
  void retarget_solve(const HyCimConfig& config);
  /// The constrained form in use.
  const ConstrainedQuboForm& form() const { return lowered_->form; }
  /// Number of binary variables.
  std::size_t size() const { return lowered_->form.size(); }

  /// The inequality filter bank (nullptr in software filter mode or when
  /// the form has no inequality constraints).  Per-constraint filters are
  /// reached through FilterBank::filter(i).
  cim::FilterBank* filter_bank() { return bank_.get(); }
  /// The equality filters (empty in software mode / no equalities).
  std::vector<cim::EqualityFilter>& equality_filters() {
    return equality_filters_;
  }
  /// The VMV engine computing xᵀQx.
  cim::VmvEngine& engine() { return *engine_; }

  /// Erases and re-programs filters + crossbars with fresh cycle-to-cycle
  /// noise (the Fig. 7(f) repeated-measurement protocol).  Affects this
  /// solver only, never chips it was cloned from or to.
  void reprogram();

 private:
  class Problem;

  /// The lowered problem and what fabrication derives from it alone.
  /// Immutable once built, so clones share it.
  struct Lowered {
    ConstrainedQuboForm form;
    /// Matrix behind the incremental fast path, with the resolved kernel's
    /// structure (neighbor index or dense row mirror) prebuilt.
    qubo::QuboMatrix eval_matrix;
    // Constraint incidence: variable -> the inequality / equality
    // constraint ids whose weight row contains it, so per-flip totals
    // updates and feasibility trials touch O(incidence) constraints
    // instead of all of them (the MDKP / bin-packing win; a QKP has one
    // all-variables row and is unaffected).
    std::vector<std::vector<std::uint32_t>> ineq_by_var;
    std::vector<std::vector<std::uint32_t>> eq_by_var;
    // Equality filters are fabricated over their support only (like the
    // FilterBank's inequality filters); eq_supports[e] maps local column
    // -> global variable.
    std::vector<std::vector<std::uint32_t>> eq_supports;
  };

  /// Builds the per-variable constraint-incidence lists (software totals)
  /// into `lowered` and the equality filters' incidence CSR.
  void build_incidence(Lowered& lowered);

  /// Gathers equality filter e's support columns out of a full-width
  /// configuration (the filters are support-compressed).
  qubo::BitVector eq_gather(std::size_t e,
                            std::span<const std::uint8_t> x) const;

  HyCimConfig config_;
  std::shared_ptr<const Lowered> lowered_;
  std::unique_ptr<cim::VmvEngine> engine_;
  std::unique_ptr<cim::FilterBank> bank_;
  std::vector<cim::EqualityFilter> equality_filters_;
  qubo::Kernel resolved_kernel_ = qubo::Kernel::kDense;
  // Routes flips to the incident equality filters' local columns (the same
  // cim::VariableIncidence the bank uses).  Per solver: grouping uses
  // scratch inside the index.
  cim::VariableIncidence eq_incidence_;
};

}  // namespace hycim::core
