// ladder_islands: tempering and archipelago requests as a closed loop.
//
// One caller alternates replica-exchange and island-model requests with
// short exchange and migration intervals over two instance families:
// sparse max-cut on the software filter (the SoA replica path and the
// sparse flip kernel) and sparse-incidence MDKP on hardware filters
// (cloned-chip replicas).  Runtime task trees and barrier cadence dominate
// here; fig10_qkp and serve_mix run single-walk SA and bypass them, so a
// barrier or pool change should show here and nowhere else.
#include "load.hpp"

namespace hycimbench {
namespace {

constexpr std::size_t kPerFamily = 12;     ///< instances per family
constexpr std::size_t kIterations = 1000;  ///< per replica
constexpr std::size_t kTracedRequests = 16;
/// The instances are a fixed dataset; the run seed draws the SA, ladder
/// and migration randomness of every request.
constexpr std::uint64_t kInstanceSeed = 2024;

struct Instances {
  std::vector<cop::AnyInstance> maxcut, mdkp;
  std::vector<double> maxcut_ref, mdkp_ref;
};

Instances make_instances() {
  Instances out;
  for (std::size_t k = 0; k < kPerFamily; ++k) {
    cop::MaxCutInstance graph =
        cop::generate_maxcut(128, 0.05, util::fork_seed(kInstanceSeed, 100 + k), 1.0,
                             4.0);
    graph.name = "maxcut_" + std::to_string(k);
    out.maxcut.emplace_back(std::move(graph));
    cop::MdkpGeneratorParams params;
    params.n = 64;
    params.dimensions = 8;
    params.incident_dimensions = 2;
    params.density_percent = 25;
    cop::MdkpInstance inst =
        cop::generate_mdkp(params, util::fork_seed(kInstanceSeed, 200 + k));
    inst.name = "mdkp_" + std::to_string(k);
    out.mdkp.emplace_back(std::move(inst));
  }
  out.maxcut_ref.assign(kPerFamily, 0.0);
  out.mdkp_ref.assign(kPerFamily, 0.0);
  return out;
}

/// Reference values: a long exact-filter, ideal-fidelity SA batch per
/// instance (never timed).
void compute_references(Instances& inst) {
  runtime::BatchParams fan;
  fan.restarts = 2 * kPerFamily;
  runtime::run_batch(fan, [&](std::size_t i, util::Rng&) {
    const bool cut = i < kPerFamily;
    const std::size_t k = i % kPerFamily;
    const cop::LoweredProblem lowered =
        cop::lower(cut ? inst.maxcut[k] : inst.mdkp[k]);
    core::HyCimConfig config;
    config.sa.iterations = 20000;
    config.fidelity = cim::VmvMode::kIdeal;
    config.filter_mode = core::FilterMode::kSoftware;
    runtime::BatchParams batch;
    batch.restarts = 8;
    batch.threads = 1;
    batch.seed = 77 + i;
    const auto result =
        runtime::solve_batch(lowered.form, config, lowered.init, batch);
    (cut ? inst.maxcut_ref : inst.mdkp_ref)[k] =
        lowered.score(result.best_x).value;
    return runtime::RunRecord{};
  });
}

Job make_job(const Instances& inst, std::uint64_t seed, unsigned width,
             std::size_t i) {
  // Kinds cycle over six slots: max-cut ladder, MDKP ladder, max-cut
  // islands, MDKP islands, MDKP ladder, MDKP islands.  At width 1 an MDKP
  // request costs ~4x a max-cut one; with equal shares the latency median
  // sat in the gap between the two families and moved 5.7–7.9 ms from run
  // to run, so MDKP takes two thirds and the median falls inside its range.
  const std::size_t slot = i % 6;
  const bool cut = slot == 0 || slot == 2;
  const bool tempering = slot == 0 || slot == 1 || slot == 4;
  const std::size_t k = (i / 6) % kPerFamily;
  Job job;
  job.request.instance = cut ? inst.maxcut[k] : inst.mdkp[k];
  job.reference = cut ? inst.maxcut_ref[k] : inst.mdkp_ref[k];
  core::HyCimConfig& config = job.request.config;
  config.sa.iterations = kIterations;
  config.fidelity = cim::VmvMode::kQuantized;
  config.filter_mode =
      cut ? core::FilterMode::kSoftware : core::FilterMode::kHardware;
  config.filter.fab_seed = 500 + k;
  anneal::TemperingParams ladder;
  ladder.replicas = 4;
  ladder.exchange_interval = 10;
  if (tempering) {
    config.search = ladder;
    job.request.batch.restarts = 2;
  } else {
    anneal::TemperingParams island = ladder;
    island.replicas = 2;
    anneal::ArchipelagoParams islands;
    islands.islands = 4;
    islands.roster = {island};
    islands.migration_interval = 20;
    islands.stagnation_epochs = 2;
    config.search = islands;
    job.request.batch.restarts = 1;
  }
  job.request.batch.threads = width;
  job.request.batch.seed = util::fork_seed(seed ^ 0x1ADDE2ULL, i);
  return job;
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.chip_cache_capacity = 2 * kPerFamily;
  config.workers = cores();
  return config;
}

}  // namespace

void run_ladder_islands(const Options& options, Outcome& out, Trace& trace) {
  Instances inst = make_instances();
  compute_references(inst);
  ClosedWorkload workload;
  workload.config = service_config();
  workload.job = [&](unsigned width, std::size_t i) {
    return make_job(inst, options.seed, width, i);
  };
  workload.setup = [] {
    const Instances fresh = make_instances();
    const service::Service session(service_config());
    warm_pool();
  };
  workload.traced_requests = kTracedRequests;
  run_closed_workload(options, workload, out, trace);
}

}  // namespace hycimbench
