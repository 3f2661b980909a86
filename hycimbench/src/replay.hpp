// The traced replay: Service::solve decomposed into its public layer calls,
// one span per call, so one request's time splits across cop (lowering,
// scoring), service (request keying, chip-cache lookup), core (chip
// fabrication and clone), runtime (the batch fan) and the walk (anneal /
// cim / qubo, timed from RunRecord::seconds).
//
// The replay mirrors Service::attempt_solve for a sequential caller with
// no faults armed: same lowering, same fabrication key, an LRU of the same
// capacity, the same prototype clone + retarget (with the service's trace
// guard), the same strategy dispatch and width.  Its replies are therefore
// bit-identical to Service::solve's, which the workloads check.
#pragma once

#include <list>
#include <memory>
#include <vector>

#include "measure.hpp"

namespace hycimbench {

/// Times and exact counts the replay accumulates over its requests.
struct LayerLedger {
  std::vector<double> lower_us, key_us, score_us, clone_us, fabricate_ms,
      batch_ms, run_ms;
  double run_seconds = 0.0;     ///< Σ RunRecord::seconds
  double width_seconds = 0.0;   ///< Σ batch wall × effective width
  double traced_seconds = 0.0;  ///< Σ request root spans
  std::uint64_t requests = 0;
  std::uint64_t proposals = 0, evaluated = 0, infeasible = 0;
  std::uint64_t exchanges_proposed = 0, exchanges_accepted = 0;
  std::uint64_t migrations_proposed = 0, migrations_accepted = 0;
  std::uint64_t resamples = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  /// Σ llround(1000 · problem value): a checksum of the results.
  std::uint64_t value_checksum = 0;

  /// Adds the batch counters of one reply.
  void count(const service::Reply& reply);
};

class LayerReplay {
 public:
  explicit LayerReplay(const service::ServiceConfig& config);

  /// Solves `request` through the layer calls, recording spans under
  /// request id `id`.
  service::Reply solve(const service::Request& request, std::uint64_t id,
                       Trace& trace, LayerLedger& ledger);

 private:
  struct Entry {
    service::ChipKey key;
    std::shared_ptr<const core::HyCimSolver> chip;
  };
  service::ServiceConfig config_;
  std::list<Entry> lru_;  ///< front = most recently used
};

/// Extra per-layer inputs only some workloads measure; zero elsewhere.
struct LayerExtras {
  std::vector<double> overhead_ms;  ///< reply latency − batch wall
  std::vector<double> lag_ms;       ///< how late each request was sent
  double dqubo_build_ms = 0.0;      ///< median D-QUBO construction
  double dqubo_run_seconds = 0.0;   ///< Σ D-QUBO run seconds
  double dqubo_wall_seconds = 0.0;  ///< Σ wall of serial D-QUBO fans
  std::uint64_t dqubo_evaluated = 0;
  std::uint64_t dqubo_proposed = 0;
  runtime::PoolStats pool_before, pool_after;
  double untraced_seconds = 0.0;  ///< Σ Service::solve wall, same requests
};

/// Emits every per-layer metric into `out` (the full list on every
/// workload; layers a workload does not exercise read 0) and records the
/// exact counts.  Returns false when the layer sum misses the measured
/// Service::solve total by more than kLayerSumTolerance.
bool emit_per_layer(Outcome& out, const Trace& trace,
                    const LayerLedger& ledger, const LayerExtras& extras);

/// Largest accepted |Σ layer self-times − Σ Service::solve| ÷ Σ
/// Service::solve over the same requests.
inline constexpr double kLayerSumTolerance = 0.15;

}  // namespace hycimbench
