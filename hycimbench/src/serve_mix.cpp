// serve_mix: small mixed requests through Service::submit, open loop.
//
// Seeded Poisson arrivals from one sender thread at two fixed rates and a
// closed-loop saturation phase, taken in alternating rounds.  The rates are frozen absolute numbers:
// nominal ≈ 15 % and peak ≈ 25 % of the ~2000 req/s saturation throughput
// measured on 4 cores when the benchmark was defined.  A shared 4-core
// machine's speed drifted by a third between minutes, and at higher rates
// a slow stretch put the median in the queueing tail (ten runs at
// 800/1200 req/s: p99 spread 0.30 and 0.45; five at 600/900 req/s: p50
// spread 0.88).  Traffic is short SA requests over QKP,
// sparse-incidence MDKP, max-cut and bin packing.  A quarter of the
// requests carry a never-seen instance (cold fabrication); the rest draw
// from a hot set larger than the chip cache, so hits, misses and
// evictions all occur.  The service, cop and fabrication layers are a
// large share here and the walk is small: this is the write side of the
// chip cache beside fig10_qkp's read side.  Graph coloring is left out:
// its equality-filter rejections make a single request ~100x slower than
// the rest, so it alone would set the p99.
#include <algorithm>
#include <set>

#include "load.hpp"

namespace hycimbench {
namespace {

constexpr std::size_t kHotSet = 48;
constexpr std::size_t kCacheCapacity = 32;
constexpr double kColdShare = 0.25;
constexpr std::size_t kTracedRequests = 400;
/// The hot set is a fixed dataset; the run seed draws the request stream
/// (hot picks, cold instances, SA seeds) and the arrival times.
constexpr std::uint64_t kHotSeed = 2024;
/// Open-loop rates in requests per second (see the file comment).
constexpr double kNominalRps = 300.0;
constexpr double kPeakRps = 500.0;

/// Concurrent drainers: one core is left to the sender and the collector,
/// so the load generator never waits behind the load it generates.
unsigned drainers() { return std::max(1u, cores() - 1); }

/// Best cut a 1-flip local search reaches from the all-zero partition.
double local_search_cut(const cop::MaxCutInstance& g) {
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(
      g.num_vertices);
  for (const cop::Edge& e : g.edges) {
    adj[e.u].emplace_back(e.v, e.weight);
    adj[e.v].emplace_back(e.u, e.weight);
  }
  qubo::BitVector x(g.num_vertices, 0);
  for (bool improved = true; improved;) {
    improved = false;
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      double gain = 0.0;  // same-side edges become cut, cut ones uncut
      for (const auto& [u, w] : adj[v]) gain += x[u] == x[v] ? w : -w;
      if (gain > 1e-12) {
        x[v] ^= 1;
        improved = true;
      }
    }
  }
  return g.cut_value(x);
}

/// An instance of kind `kind` (0 QKP, 1 MDKP, 2 max-cut, 3 bin packing).
cop::AnyInstance make_instance(std::size_t kind, std::uint64_t seed,
                               const std::string& name) {
  switch (kind) {
    case 0: {
      cop::QkpGeneratorParams params;
      params.n = 32;
      params.density_percent = 50;
      cop::QkpInstance inst = cop::generate_qkp(params, seed);
      inst.name = name;
      return inst;
    }
    case 1: {
      cop::MdkpGeneratorParams params;
      params.n = 40;
      params.dimensions = 8;
      params.incident_dimensions = 2;
      params.density_percent = 25;
      cop::MdkpInstance inst = cop::generate_mdkp(params, seed);
      inst.name = name;
      return inst;
    }
    case 2: {
      cop::MaxCutInstance inst = cop::generate_maxcut(48, 0.15, seed, 1.0, 4.0);
      inst.name = name;
      return inst;
    }
    default: {
      cop::BinPackingInstance inst =
          cop::generate_bin_packing(8, 20, 10, seed);
      inst.name = name;
      return inst;
    }
  }
}

/// The classical-heuristic reference value of a make_instance() instance.
double heuristic_reference(const cop::AnyInstance& any) {
  if (const auto* qkp = std::get_if<cop::QkpInstance>(&any)) {
    return static_cast<double>(
        qkp->total_profit(cop::local_search(*qkp, cop::greedy_solution(*qkp))));
  }
  if (const auto* mdkp = std::get_if<cop::MdkpInstance>(&any)) {
    return static_cast<double>(
        mdkp->total_profit(cop::greedy_solution(*mdkp)));
  }
  if (const auto* cut = std::get_if<cop::MaxCutInstance>(&any)) {
    return local_search_cut(*cut);
  }
  const auto bins =
      cop::first_fit_decreasing(std::get<cop::BinPackingInstance>(any));
  return static_cast<double>(
      std::set<std::size_t>(bins.begin(), bins.end()).size());
}

/// The hot set's instances (set-up) and their references (never timed).
struct Mix {
  std::vector<cop::AnyInstance> hot;
  std::vector<double> hot_ref;
};

std::vector<cop::AnyInstance> make_hot_set() {
  std::vector<cop::AnyInstance> hot;
  for (std::size_t h = 0; h < kHotSet; ++h) {
    hot.push_back(make_instance(h % 4, util::fork_seed(kHotSeed, h),
                                "hot_" + std::to_string(h)));
  }
  return hot;
}

/// The request for `instance`: a short SA batch, hardware filters for the
/// constrained kinds.
Job make_request(cop::AnyInstance instance, double reference,
                 std::uint64_t fab_seed, unsigned width,
                 std::uint64_t batch_seed) {
  Job job;
  job.reference = reference;
  core::HyCimConfig& config = job.request.config;
  config.sa.iterations = 400;
  config.fidelity = cim::VmvMode::kQuantized;
  config.filter_mode = std::holds_alternative<cop::MaxCutInstance>(instance)
                           ? core::FilterMode::kSoftware
                           : core::FilterMode::kHardware;
  config.filter.fab_seed = fab_seed;
  job.request.instance = std::move(instance);
  job.request.batch.restarts = 4;
  job.request.batch.threads = width;
  job.request.batch.seed = batch_seed;
  return job;
}

Job make_job(const Mix& mix, std::uint64_t seed, unsigned width,
             std::size_t i) {
  util::Rng rng = util::fork_stream(seed ^ 0x5E2FEULL, i);
  const std::uint64_t batch_seed = util::fork_seed(seed ^ 0xB47CULL, i);
  if (rng.uniform() < kColdShare) {
    cop::AnyInstance inst =
        make_instance(static_cast<std::size_t>(rng.uniform_int(0, 3)),
                      util::fork_seed(seed, 1'000'000 + i),
                      "cold_" + std::to_string(i));
    const double ref = heuristic_reference(inst);
    return make_request(std::move(inst), ref, 10'000 + i, width, batch_seed);
  }
  const auto h = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kHotSet) - 1));
  return make_request(mix.hot[h], mix.hot_ref[h], 900 + h, width, batch_seed);
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.chip_cache_capacity = kCacheCapacity;
  config.workers = drainers();
  return config;
}

}  // namespace

void run_serve_mix(const Options& options, Outcome& out, Trace& trace) {
  const unsigned width = options.width;
  Mix mix;
  mix.hot = make_hot_set();
  for (const cop::AnyInstance& inst : mix.hot) {
    mix.hot_ref.push_back(heuristic_reference(inst));
  }
  auto svc = std::make_unique<service::Service>(service_config());
  warm_pool();
  const JobFn jobs = [&](std::size_t i) {
    return make_job(mix, options.seed, width, i);
  };
  const double phase_s = 0.35 * options.seconds;

  if (!options.trace) {
    SetupTimer setup([] {
      const std::vector<cop::AnyInstance> fresh = make_hot_set();
      const service::Service session(service_config());
      warm_pool();
    });
    std::size_t next = warm_up(*svc, jobs, 0, out);
    setup.sample(kSetupSampleSeconds);
    Phase nominal;
    Phase peak;
    Phase sat;
    for (std::size_t r = 0; r < kSlices; ++r) {
      nominal.absorb(open_loop(*svc, jobs, next, kNominalRps,
                               phase_s / kSlices,
                               util::fork_seed(options.seed, 2 * r + 1), out));
      peak.absorb(open_loop(*svc, jobs, nominal.next_job, kPeakRps,
                            phase_s / kSlices,
                            util::fork_seed(options.seed, 2 * r + 2), out));
      sat.absorb(saturation(*svc, jobs, peak.next_job, 4 * drainers(),
                            0.3 * options.seconds / kSlices, out));
      next = sat.next_job;
      setup.sample(kSetupSampleSeconds);
    }
    const std::size_t completed =
        nominal.completed + peak.completed + sat.completed;
    out.note("sender lag p99 ms: nominal " +
             std::to_string(percentile(nominal.lag_ms, 0.99)) + ", peak " +
             std::to_string(percentile(peak.lag_ms, 0.99)));
    out.note("p50 ms (lag, latency - batch wall): nominal " +
             std::to_string(percentile(nominal.lag_ms, 0.5)) + ", " +
             std::to_string(percentile(nominal.overhead_ms, 0.5)) +
             "; peak " + std::to_string(percentile(peak.lag_ms, 0.5)) +
             ", " + std::to_string(percentile(peak.overhead_ms, 0.5)));
    emit_end_to_end(out, setup.seconds_per_setup(), nominal, peak, sat,
                    sat.rate(true),
                    100.0 *
                        (nominal.successes + peak.successes + sat.successes) /
                        completed);
    return;
  }

  LayerReplay replay(service_config());
  LayerLedger ledger;
  LayerExtras extras;
  extras.pool_before = svc->stats().pool;
  traced_replay(*svc, replay, jobs, kTracedRequests, trace, ledger, extras,
                out);
  // Queue wait and generator lag exist only under concurrent load: take
  // them from a warmed-up nominal-rate open-loop phase.
  const std::size_t first = warm_up(*svc, jobs, kTracedRequests, out);
  const Phase nominal = open_loop(*svc, jobs, first, kNominalRps, phase_s,
                                  util::fork_seed(options.seed, 1), out);
  extras.overhead_ms = nominal.overhead_ms;
  extras.lag_ms = nominal.lag_ms;
  extras.pool_after = svc->stats().pool;
  if (!emit_per_layer(out, trace, ledger, extras)) {
    out.note("layer sum outside tolerance");
    ++out.mismatches;
  }
}

}  // namespace hycimbench
