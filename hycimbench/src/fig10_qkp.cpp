// fig10_qkp: the paper's Fig. 10 / Sec. 4.3 protocol as a closed loop.
//
// One caller issues HyCiM requests through Service::solve: per init, a
// fixed Monte-Carlo x0 on one of the 40 generated n=100 QKP instances
// (densities interleaved), 100 hardware-filter SA restarts × 1000
// iterations at width ≤ nproc.  The walk does almost all of the work and
// the chip cache is read on every init after an instance's first, so a
// kernel gain shows here and a service-layer gain should not.  The
// traced run replays the first inits layer by layer and adds the D-QUBO
// baseline's run_batch fan on the same inits (paper Fig. 10's contrast).
#include <algorithm>

#include "core/dqubo_solver.hpp"
#include "core/reference.hpp"
#include "load.hpp"

namespace hycimbench {
namespace {

constexpr std::size_t kItems = 100;
constexpr std::size_t kRuns = 100;
constexpr std::size_t kIterations = 1000;
constexpr std::size_t kTracedInits = 48;
/// The instance suite is a fixed dataset, like the paper's benchmark set;
/// the run seed draws the Monte-Carlo inits and the SA seeds.
constexpr std::uint64_t kSuiteSeed = 2024;

struct Suite {
  std::vector<cop::QkpInstance> instances;  ///< densities interleaved
  std::vector<double> reference;            ///< best-known profit each
};

Suite make_suite() {
  const auto paper = cop::generate_paper_suite(kItems, kSuiteSeed);
  // The paper suite holds 10 instances per density in blocks; request i
  // takes instance i mod 40 of this order, so densities 25/50/75/100
  // alternate.
  Suite suite;
  const std::size_t per_density = paper.size() / 4;
  for (std::size_t j = 0; j < paper.size(); ++j) {
    suite.instances.push_back(paper[(j % 4) * per_density + j / 4]);
  }
  suite.reference.assign(suite.instances.size(), 0.0);
  return suite;
}

/// Best-known profits of the first `count` instances (never timed).
void compute_references(Suite& suite, std::size_t count) {
  runtime::BatchParams fan;
  fan.restarts = std::min(count, suite.instances.size());
  runtime::run_batch(fan, [&](std::size_t i, util::Rng&) {
    core::ReferenceParams params;
    params.seed = 5000 + i;
    suite.reference[i] = static_cast<double>(
        core::reference_solution(suite.instances[i], params).profit);
    return runtime::RunRecord{};
  });
}

Job make_job(const Suite& suite, std::uint64_t seed, unsigned width,
             std::size_t i) {
  const std::size_t idx = i % suite.instances.size();
  const cop::QkpInstance& inst = suite.instances[idx];
  util::Rng rng = util::fork_stream(seed, i);
  qubo::BitVector x0 = cop::random_feasible(inst, rng);

  Job job;
  job.request.instance = inst;
  job.request.config.sa.iterations = kIterations;
  job.request.config.fidelity = cim::VmvMode::kQuantized;
  job.request.config.filter_mode = core::FilterMode::kHardware;
  job.request.config.filter.fab_seed = 33 + idx;
  job.request.batch.restarts = kRuns;
  job.request.batch.threads = width;
  job.request.batch.seed = util::fork_seed(seed ^ 0xF16'10ULL, i);
  job.request.init = [x0 = std::move(x0)](util::Rng&) { return x0; };
  job.reference = suite.reference[idx];
  return job;
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.chip_cache_capacity = 40;  // the whole suite stays programmed
  config.workers = cores();
  return config;
}

/// The D-QUBO baseline on init i's instance: run_batch over kRuns restarts
/// from one random [x; y] start, like bench/fig10_solving_efficiency.
void dqubo_leg(const Suite& suite, std::uint64_t seed, unsigned width,
               std::size_t i,
               std::vector<std::unique_ptr<core::DquboSolver>>& solvers,
               Trace& trace, LayerExtras& extras,
               std::vector<double>& build_ms, Outcome& out) {
  const std::size_t idx = i % suite.instances.size();
  const cop::QkpInstance& inst = suite.instances[idx];
  const std::uint64_t id = 1'000'000 + i;
  const int root = trace.open("dqubo", id, -1);
  if (!solvers[idx]) {
    const int span = trace.open("dqubo.build", id, root);
    core::DquboConfig config;
    config.sa.iterations = kIterations;
    config.fidelity = cim::VmvMode::kQuantized;
    solvers[idx] = std::make_unique<core::DquboSolver>(inst, config);
    trace.close(span);
    const Span& s = trace.spans()[static_cast<std::size_t>(span)];
    build_ms.push_back((s.end_us - s.start_us) / 1000.0);
  }
  core::DquboSolver& dqubo = *solvers[idx];
  util::Rng rng = util::fork_stream(seed ^ 0xD0B0ULL, i);
  const qubo::BitVector xy0 = dqubo.random_initial(rng);

  runtime::BatchParams params;
  params.restarts = kRuns;
  params.threads = width;
  params.seed = util::fork_seed(seed ^ 0xD0B1ULL, i);
  std::size_t bad = 0;
  const int span = trace.open("dqubo.batch", id, root);
  const auto t0 = Clock::now();
  const runtime::BatchResult batch = runtime::run_batch(
      params, [&](std::size_t, util::Rng& run_rng) {
        const auto r = dqubo.solve(xy0, run_rng.next_u64());
        runtime::RunRecord record;
        record.feasible = r.feasible;
        record.evaluated = r.sa.evaluated;
        record.proposed = r.sa.proposed;
        // Output check: the reported profit and feasibility recomputed
        // from the item bits.
        const bool ok = r.best_x.size() == inst.n &&
                        inst.feasible(r.best_x) == r.feasible &&
                        (r.feasible ? inst.total_profit(r.best_x) : 0) ==
                            r.profit;
        record.best_energy = ok ? 0.0 : 1.0;
        return record;
      });
  extras.dqubo_wall_seconds += seconds_between(t0, Clock::now());
  trace.close(span);
  trace.close(root);
  for (const runtime::RunRecord& run : batch.runs) {
    if (run.best_energy != 0.0) ++bad;
  }
  ++out.attempted;
  if (bad > 0) {
    ++out.failed;
    ++out.mismatches;
    out.note("D-QUBO output check failed on init " + std::to_string(i));
  }
  extras.dqubo_run_seconds += batch.run_seconds_sum;
  extras.dqubo_evaluated += batch.total_evaluated;
  extras.dqubo_proposed += batch.total_proposed;
}

}  // namespace

void run_fig10_qkp(const Options& options, Outcome& out, Trace& trace) {
  Suite suite = make_suite();
  compute_references(suite,
                     options.trace ? kTracedInits : suite.instances.size());
  ClosedWorkload workload;
  workload.config = service_config();
  workload.job = [&](unsigned width, std::size_t i) {
    return make_job(suite, options.seed, width, i);
  };
  workload.setup = [] {
    const Suite fresh = make_suite();
    const service::Service session(service_config());
    warm_pool();
  };
  workload.traced_requests = kTracedInits;
  workload.traced_extra = [&](Trace& t, LayerExtras& extras, Outcome& o) {
    std::vector<std::unique_ptr<core::DquboSolver>> solvers(
        suite.instances.size());
    std::vector<double> build_ms;
    for (std::size_t i = 0; i < kTracedInits; ++i) {
      dqubo_leg(suite, options.seed, options.width, i, solvers, t, extras,
                build_ms, o);
    }
    extras.dqubo_build_ms = median(build_ms);
  };
  run_closed_workload(options, workload, out, trace);
}

}  // namespace hycimbench
