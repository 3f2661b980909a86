#include "cop/any_instance.hpp"

#include <memory>
#include <utility>

#include "cop/adapters.hpp"

namespace hycim::cop {

namespace {

// The single source of each registry name: lower_entry(), the score
// closures, and kind_name() all read these, so a rename cannot leave the
// two lookup paths disagreeing.
template <typename T>
constexpr std::string_view kKindOf = [] {
  static_assert(sizeof(T) == 0, "no registry entry for this instance type");
  return "";
}();
template <>
constexpr std::string_view kKindOf<QkpInstance> = "qkp";
template <>
constexpr std::string_view kKindOf<MdkpInstance> = "mdkp";
template <>
constexpr std::string_view kKindOf<BinPackingInstance> = "bin_packing";
template <>
constexpr std::string_view kKindOf<ColoringInstance> = "coloring";
template <>
constexpr std::string_view kKindOf<MaxCutInstance> = "maxcut";

// --- Registry entries ----------------------------------------------------
// One lower_entry() overload per variant alternative: the lowering, the
// feasible-x0 generator, and the problem-level scorer, bundled.  Kinds with
// a validator run it first, so a malformed instance throws
// std::invalid_argument here instead of lowering garbage.  Closures
// share the instance through a shared_ptr so the bundle owns everything it
// needs (async submissions outlive the request object).

LoweredProblem lower_entry(const QkpInstance& instance) {
  instance.validate();
  auto inst = std::make_shared<const QkpInstance>(instance);
  LoweredProblem out;
  out.kind = kKindOf<QkpInstance>;
  out.form = to_constrained_form(*inst);
  out.init = [inst](util::Rng& rng) { return random_feasible(*inst, rng); };
  out.score = [inst](std::span<const std::uint8_t> x) {
    ProblemReport r;
    r.kind = kKindOf<QkpInstance>;
    r.metric = "profit";
    r.feasible = inst->feasible(x);
    // Infeasible selections score 0 — the paper's "trapped" accounting.
    r.value = r.feasible ? static_cast<double>(inst->total_profit(x)) : 0.0;
    return r;
  };
  return out;
}

LoweredProblem lower_entry(const MdkpInstance& instance) {
  instance.validate();
  auto inst = std::make_shared<const MdkpInstance>(instance);
  LoweredProblem out;
  out.kind = kKindOf<MdkpInstance>;
  out.form = to_constrained_form(*inst);
  out.init = [inst](util::Rng& rng) { return random_feasible(*inst, rng); };
  out.score = [inst](std::span<const std::uint8_t> x) {
    ProblemReport r;
    r.kind = kKindOf<MdkpInstance>;
    r.metric = "profit";
    r.feasible = inst->feasible(x);
    r.value = r.feasible ? static_cast<double>(inst->total_profit(x)) : 0.0;
    return r;
  };
  return out;
}

LoweredProblem lower_entry(const BinPackingInstance& instance) {
  auto inst = std::make_shared<const BinPackingInstance>(instance);
  BinPackingForm lowered = to_constrained_form(*inst);
  LoweredProblem out;
  out.kind = kKindOf<BinPackingInstance>;
  // Deterministic feasible start: the first-fit-decreasing packing (always
  // within max_bins, so no bin constraint is violated).  Every restart
  // starts there and SA consolidates bins — the rng only drives the walk.
  qubo::BitVector x0 = encode_assignment(lowered, first_fit_decreasing(*inst));
  out.init = [x0 = std::move(x0)](util::Rng&) { return x0; };
  const std::size_t assignment_vars = lowered.items * lowered.bins;
  out.score = [inst, assignment_vars](std::span<const std::uint8_t> x) {
    const auto assignment = x.first(assignment_vars);
    ProblemReport r;
    r.kind = kKindOf<BinPackingInstance>;
    r.metric = "bins_used";
    r.higher_is_better = false;
    r.feasible = inst->valid_assignment(assignment);
    r.value = static_cast<double>(inst->bins_used(assignment));
    return r;
  };
  out.form = std::move(lowered.form);
  return out;
}

LoweredProblem lower_entry(const ColoringInstance& instance) {
  auto inst = std::make_shared<const ColoringInstance>(instance);
  ColoringForm lowered = to_constrained_form(*inst);
  LoweredProblem out;
  out.kind = kKindOf<ColoringInstance>;
  const std::size_t vertices = lowered.vertices;
  const std::size_t colors = lowered.colors;
  const std::size_t n_vars = lowered.form.size();
  // A uniformly random color per vertex: one-hot by construction, so every
  // per-vertex equality constraint holds from the start.
  out.init = [vertices, colors, n_vars](util::Rng& rng) {
    qubo::BitVector x(n_vars, 0);
    for (std::size_t v = 0; v < vertices; ++v) {
      x[v * colors + rng.index(colors)] = 1;
    }
    return x;
  };
  out.score = [inst](std::span<const std::uint8_t> x) {
    ProblemReport r;
    r.kind = kKindOf<ColoringInstance>;
    r.metric = "violations";
    r.higher_is_better = false;
    r.feasible = inst->valid_coloring(x);
    r.value = static_cast<double>(inst->violations(x));
    return r;
  };
  out.form = std::move(lowered.form);
  return out;
}

LoweredProblem lower_entry(const MaxCutInstance& instance) {
  instance.validate();
  auto inst = std::make_shared<const MaxCutInstance>(instance);
  LoweredProblem out;
  out.kind = kKindOf<MaxCutInstance>;
  out.form = to_constrained_form(*inst);
  const std::size_t n = inst->num_vertices;
  // Unconstrained: any partition is feasible.
  out.init = [n](util::Rng& rng) { return rng.random_bits(n); };
  out.score = [inst](std::span<const std::uint8_t> x) {
    ProblemReport r;
    r.kind = kKindOf<MaxCutInstance>;
    r.metric = "cut_weight";
    r.feasible = true;
    r.value = inst->cut_value(x);
    return r;
  };
  return out;
}

}  // namespace

LoweredProblem lower(const AnyInstance& instance) {
  return std::visit([](const auto& inst) { return lower_entry(inst); },
                    instance);
}

std::string_view kind_name(const AnyInstance& instance) {
  return std::visit(
      [](const auto& inst) {
        return kKindOf<std::decay_t<decltype(inst)>>;
      },
      instance);
}

std::string_view instance_name(const AnyInstance& instance) {
  return std::visit([](const auto& inst) -> std::string_view {
    return inst.name;
  }, instance);
}

}  // namespace hycim::cop
