#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "core/thread_budget.hpp"

namespace hycimbench {
namespace {

double span_us(const Trace& trace, int span) {
  const Span& s = trace.spans()[static_cast<std::size_t>(span)];
  return s.end_us - s.start_us;
}

/// The service's trace guard: past the event bound a strategy solves with
/// record_trace off (counters stay exact).
core::HyCimConfig guarded(core::HyCimConfig config, std::size_t restarts,
                          std::size_t max_events) {
  if (max_events == 0 ||
      service::estimated_trace_events(config, restarts) <= max_events) {
    return config;
  }
  if (auto* t = std::get_if<anneal::TemperingParams>(&config.search)) {
    t->record_trace = false;
  } else if (auto* a = std::get_if<anneal::ArchipelagoParams>(&config.search)) {
    a->record_trace = false;
  }
  return config;
}

/// Schedulable tasks of one request: restarts, × replicas for ladders.
std::size_t task_count(const core::HyCimConfig& config, std::size_t restarts) {
  if (const auto* t = std::get_if<anneal::TemperingParams>(&config.search)) {
    return restarts * t->replicas;
  }
  if (const auto* a = std::get_if<anneal::ArchipelagoParams>(&config.search)) {
    return restarts * anneal::total_replicas(*a);
  }
  return restarts;
}

runtime::BatchResult run_on_chip(const core::HyCimSolver& chip,
                                 const runtime::InitFn& init,
                                 const runtime::BatchParams& batch) {
  if (std::holds_alternative<anneal::TemperingParams>(chip.config().search)) {
    return runtime::solve_tempered(chip, init, batch);
  }
  if (std::holds_alternative<anneal::ArchipelagoParams>(chip.config().search)) {
    return runtime::solve_archipelago(chip, init, batch);
  }
  return runtime::solve_batch(chip, init, batch);
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void LayerLedger::count(const service::Reply& reply) {
  const runtime::BatchResult& b = reply.batch;
  ++requests;
  proposals += b.total_proposed;
  evaluated += b.total_evaluated;
  infeasible += b.total_infeasible;
  exchanges_proposed += b.total_exchanges_proposed;
  exchanges_accepted += b.total_exchanges_accepted;
  migrations_proposed += b.total_migrations_proposed;
  migrations_accepted += b.total_migrations_accepted;
  resamples += b.total_resamples;
  value_checksum +=
      static_cast<std::uint64_t>(std::llround(reply.problem.value * 1000.0));
}

LayerReplay::LayerReplay(const service::ServiceConfig& config)
    : config_(config) {}

service::Reply LayerReplay::solve(const service::Request& request,
                                  std::uint64_t id, Trace& trace,
                                  LayerLedger& ledger) {
  const int root = trace.open("request", id, -1);

  int span = trace.open("cop.lower", id, root);
  const cop::LoweredProblem lowered = cop::lower(request.instance);
  trace.close(span);
  ledger.lower_us.push_back(span_us(trace, span));

  span = trace.open("service.key", id, root);
  const service::ChipKey key =
      service::fabrication_key(lowered.form, request.config);
  trace.close(span);
  ledger.key_us.push_back(span_us(trace, span));

  service::Reply reply;
  const int cache = trace.open("service.cache", id, root);
  std::shared_ptr<const core::HyCimSolver> chip;
  const auto hit = std::find_if(lru_.begin(), lru_.end(),
                                [&](const Entry& e) { return e.key == key; });
  if (hit != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, hit);
    chip = lru_.front().chip;
    reply.cache_hit = true;
    ++ledger.hits;
  } else {
    ++ledger.misses;
    span = trace.open("core.fabricate", id, cache);
    chip = std::make_shared<const core::HyCimSolver>(lowered.form,
                                                     request.config);
    trace.close(span);
    ledger.fabricate_ms.push_back(span_us(trace, span) / 1000.0);
    if (config_.chip_cache_capacity > 0) {
      lru_.push_front(Entry{key, chip});
      if (lru_.size() > config_.chip_cache_capacity) {
        lru_.pop_back();
        ++ledger.evictions;
      }
    }
  }
  trace.close(cache);

  span = trace.open("core.clone", id, root);
  core::HyCimSolver prototype(*chip, 0);
  prototype.retarget_solve(guarded(request.config, request.batch.restarts,
                                   config_.max_trace_events));
  trace.close(span);
  ledger.clone_us.push_back(span_us(trace, span));

  // A sequential caller has one request in flight: the fair-share clamp
  // leaves the resolved width untouched.
  runtime::BatchParams batch = request.batch;
  batch.threads = service::effective_batch_threads(
      runtime::resolve_thread_count(
          batch.threads, task_count(request.config, batch.restarts)),
      core::thread_budget(), 1);
  reply.effective_threads = batch.threads;
  const runtime::InitFn& init = request.init ? request.init : lowered.init;
  const int fan = trace.open("runtime.batch", id, root);
  reply.batch = run_on_chip(prototype, init, batch);
  trace.close(fan);
  // The walk runs inside the fan; its share of the fan's wall is the summed
  // run time spread over the runs that could overlap (a ladder's replicas
  // fan out inside its run, so a run's own wall already counts them).
  const double fan_us = span_us(trace, fan);
  const double run_us = reply.batch.run_seconds_sum * 1e6;
  const double overlap = static_cast<double>(
      std::max<std::size_t>(1, std::min<std::size_t>(batch.threads,
                                                     batch.restarts)));
  const double start = trace.spans()[static_cast<std::size_t>(fan)].start_us;
  trace.add("anneal.walk", id, fan, start,
            start + std::min(fan_us, run_us / overlap));
  ledger.batch_ms.push_back(fan_us / 1000.0);
  for (const runtime::RunRecord& run : reply.batch.runs) {
    ledger.run_ms.push_back(run.seconds * 1000.0);
  }
  ledger.run_seconds += reply.batch.run_seconds_sum;
  ledger.width_seconds += fan_us / 1e6 * batch.threads;
  reply.status = reply.batch.status;

  span = trace.open("cop.score", id, root);
  if (!reply.batch.best_x.empty()) {
    reply.problem = lowered.score(reply.batch.best_x);
  }
  trace.close(span);
  ledger.score_us.push_back(span_us(trace, span));
  reply.chip_key = key.lo;
  reply.attempts = 1;

  trace.close(root);
  ledger.traced_seconds += span_us(trace, root) / 1e6;
  ledger.count(reply);
  return reply;
}

bool emit_per_layer(Outcome& out, const Trace& trace,
                    const LayerLedger& ledger, const LayerExtras& extras) {
  out.add("cop.lower_us", median(ledger.lower_us), "us");
  out.add("cop.score_us", median(ledger.score_us), "us");
  out.add("service.key_us", median(ledger.key_us), "us");
  const double lookups = static_cast<double>(ledger.hits + ledger.misses);
  out.add("service.cache_hit_share", share(ledger.hits, lookups), "ratio");
  out.add("service.cache_hits", ledger.hits, "count");
  out.add("service.cache_misses", ledger.misses, "count");
  out.add("service.cache_evictions", ledger.evictions, "count");
  out.add("service.overhead_ms_p50", percentile(extras.overhead_ms, 0.5), "ms");
  out.add("service.overhead_ms_p99", percentile(extras.overhead_ms, 0.99),
          "ms");
  out.add("core.fabricate_ms", median(ledger.fabricate_ms), "ms");
  out.add("core.clone_us", median(ledger.clone_us), "us");
  out.add("core.dqubo_build_ms", extras.dqubo_build_ms, "ms");
  out.add("core.dqubo_ns_per_qubo",
          share(extras.dqubo_run_seconds * 1e9, extras.dqubo_evaluated), "ns");
  out.add("core.dqubo_qubo_per_s",
          share(extras.dqubo_evaluated, extras.dqubo_wall_seconds), "1/s");
  out.add("runtime.batch_ms", median(ledger.batch_ms), "ms");
  out.add("runtime.run_ms", median(ledger.run_ms), "ms");
  out.add("runtime.fan_efficiency",
          share(ledger.run_seconds, ledger.width_seconds), "ratio");
  const runtime::PoolStats& a = extras.pool_before;
  const runtime::PoolStats& b = extras.pool_after;
  out.add("runtime.pool_tasks", b.tasks_executed - a.tasks_executed, "count");
  out.add("runtime.pool_steals", b.steals - a.steals, "count");
  out.add("runtime.pool_parks", b.parks - a.parks, "count");
  out.add("runtime.pool_utilization", b.utilization, "ratio");
  out.add("anneal.proposals", ledger.proposals, "count");
  out.add("anneal.qubo_computations", ledger.evaluated, "count");
  out.add("anneal.ns_per_proposal",
          share(ledger.run_seconds * 1e9, ledger.proposals), "ns");
  out.add("anneal.ns_per_qubo",
          share(ledger.run_seconds * 1e9, ledger.evaluated), "ns");
  out.add("cim.filter_rejections", ledger.infeasible, "count");
  out.add("cim.filter_reject_share", share(ledger.infeasible, ledger.proposals),
          "ratio");
  out.add("anneal.exchanges_proposed", ledger.exchanges_proposed, "count");
  out.add("anneal.exchanges_accepted", ledger.exchanges_accepted, "count");
  out.add("anneal.migrations_proposed", ledger.migrations_proposed, "count");
  out.add("anneal.migrations_accepted", ledger.migrations_accepted, "count");
  out.add("anneal.resamples", ledger.resamples, "count");
  out.add("load.lag_ms_p99", percentile(extras.lag_ms, 0.99), "ms");

  // Self time per layer (span-name prefix); the request root's own self
  // time is what no layer span covers.
  std::map<std::string, double> layer_us;
  double unattributed_us = 0.0;
  for (const auto& [name, us] : trace.self_us()) {
    if (name == "request") {
      unattributed_us = us;
    } else if (name.rfind("dqubo", 0) != 0) {
      layer_us[name.substr(0, name.find('.'))] += us;
    }
  }
  double layers_us = 0.0;
  for (const auto& [layer, us] : layer_us) layers_us += us;
  const double traced_us = ledger.traced_seconds * 1e6;
  const double untraced_us = extras.untraced_seconds * 1e6;
  const double sum_error =
      untraced_us > 0.0 ? std::abs(layers_us - untraced_us) / untraced_us
                        : 1.0;
  out.add("trace.overhead_share", share(traced_us - untraced_us, untraced_us),
          "ratio");
  out.add("trace.unattributed_share", share(unattributed_us, traced_us),
          "ratio");
  out.add("trace.layer_sum_error", sum_error, "ratio");
  for (const char* layer : {"service", "cop", "core", "runtime", "anneal"}) {
    out.add(std::string(layer) + ".self_share",
            share(layer_us[layer], layers_us), "ratio");
  }
  out.add("trace.requests", ledger.requests, "count");

  out.counts = {
      {"requests", ledger.requests},
      {"proposals", ledger.proposals},
      {"qubo_computations", ledger.evaluated},
      {"filter_rejections", ledger.infeasible},
      {"exchanges_proposed", ledger.exchanges_proposed},
      {"exchanges_accepted", ledger.exchanges_accepted},
      {"migrations_proposed", ledger.migrations_proposed},
      {"migrations_accepted", ledger.migrations_accepted},
      {"resamples", ledger.resamples},
      {"cache_hits", ledger.hits},
      {"cache_misses", ledger.misses},
      {"cache_evictions", ledger.evictions},
      {"value_checksum", ledger.value_checksum},
      {"dqubo_qubo_computations", extras.dqubo_evaluated},
      {"dqubo_proposals", extras.dqubo_proposed},
  };
  return sum_error <= kLayerSumTolerance;
}

}  // namespace hycimbench
