#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>
#include <variant>

namespace hycimbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The problem-level report recomputed from the instance itself — the
/// same contract the registry scorers state (infeasible knapsacks score
/// 0, bin packing counts bins over the assignment bits).
struct Rescored {
  double value = 0.0;
  bool feasible = false;
};

/// Knapsacks (QKP, MDKP); the other kinds have their own overloads below,
/// which overload resolution prefers to this template.
template <typename Knapsack>
Rescored rescore(const Knapsack& inst, std::span<const std::uint8_t> x) {
  const bool ok = x.size() == inst.n && inst.feasible(x);
  return {ok ? static_cast<double>(inst.total_profit(x)) : 0.0, ok};
}

Rescored rescore(const cop::MaxCutInstance& inst,
                 std::span<const std::uint8_t> x) {
  if (x.size() != inst.num_vertices) return {0.0, false};
  return {inst.cut_value(x), true};
}

Rescored rescore(const cop::BinPackingInstance& inst,
                 std::span<const std::uint8_t> x) {
  const std::size_t vars = inst.num_variables();
  if (x.size() < vars) return {0.0, false};
  const auto assignment = x.first(vars);
  return {static_cast<double>(inst.bins_used(assignment)),
          inst.valid_assignment(assignment)};
}

Rescored rescore(const cop::ColoringInstance& inst,
                 std::span<const std::uint8_t> x) {
  return {static_cast<double>(inst.violations(x)), inst.valid_coloring(x)};
}

}  // namespace

std::string check_reply(const cop::AnyInstance& instance,
                        const service::Reply& reply) {
  const auto& x = reply.batch.best_x;
  if (x.empty()) return "empty best_x";
  if (!std::isfinite(reply.batch.best_energy)) return "non-finite energy";
  const Rescored r = std::visit(
      [&](const auto& inst) { return rescore(inst, x); }, instance);
  if (r.feasible != reply.problem.feasible) return "feasibility differs";
  const double tolerance = 1e-9 * std::max(1.0, std::abs(r.value));
  if (std::abs(r.value - reply.problem.value) > tolerance) {
    std::ostringstream why;
    why << "value " << reply.problem.value << " rescored " << r.value;
    return why.str();
  }
  return {};
}

bool account(Outcome& out, const cop::AnyInstance& instance,
             const service::Reply& reply) {
  ++out.attempted;
  if (reply.status != core::SolveStatus::kOk) {
    ++out.failed;
    return false;
  }
  const std::string why = check_reply(instance, reply);
  if (!why.empty()) {
    ++out.failed;
    if (out.mismatches++ < 5) {
      out.note("output check failed (" +
               std::string(cop::instance_name(instance)) + "): " + why);
    }
    return false;
  }
  return true;
}

bool reaches_reference(const cop::ProblemReport& problem, double reference) {
  if (!problem.feasible) return false;
  return problem.higher_is_better ? problem.value >= 0.95 * reference
                                  : problem.value * 0.95 <= reference;
}

int Trace::open(const std::string& name, std::uint64_t request, int parent) {
  const double now = now_us();
  return add(name, request, parent, now, now);
}

void Trace::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_us = now_us();
}

int Trace::add(const std::string& name, std::uint64_t request, int parent,
               double start_us, double end_us) {
  spans_.push_back(Span{name, request, parent, start_us, end_us});
  return static_cast<int>(spans_.size()) - 1;
}

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::map<std::string, double> Trace::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_us - spans_[i].start_us;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_us - spans_[i].start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::string build_type() { return HYCIMBENCH_BUILD_TYPE; }

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

void write_trace(const std::string& path, const Options& options,
                 const Trace& trace, const Outcome& out) {
  std::ofstream file(path);
  file << std::setprecision(17);
  file << "{\"workload\": \"" << options.workload << "\", \"seed\": "
       << options.seed << ", \"width\": " << options.width
       << ", \"nproc\": " << cores() << ", \"build_type\": \"" << build_type()
       << "\", \"compiler\": \"" << compiler() << "\",\n \"counts\": {";
  const char* sep = "";
  for (const auto& [name, value] : out.counts) {
    file << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  file << "},\n \"metrics\": {";
  sep = "";
  for (const Metric& m : out.metrics) {
    file << sep << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  file << "},\n \"spans\": [\n";
  sep = "";
  for (const Span& s : trace.spans()) {
    file << sep << "  {\"name\": \"" << s.name << "\", \"request\": "
         << s.request << ", \"parent\": " << s.parent
         << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
         << "}";
    sep = ",\n";
  }
  file << "\n]}\n";
}

}  // namespace hycimbench
