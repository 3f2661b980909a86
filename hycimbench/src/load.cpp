#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

namespace hycimbench {
namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1000.0;
}

/// Accounts one reply of a timed phase.  A failed request counts as
/// missing every latency limit: its latency sample is +inf.
void record(Phase& phase, Outcome& out, const Job& job,
            const service::Reply& reply, double latency_ms) {
  ++phase.completed;
  phase.done_s.push_back(seconds_between(phase.start, Clock::now()));
  phase.done_evaluated.push_back(reply.batch.total_evaluated);
  if (!account(out, job.request.instance, reply)) {
    phase.latency_ms.push_back(std::numeric_limits<double>::infinity());
    return;
  }
  phase.latency_ms.push_back(latency_ms);
  phase.overhead_ms.push_back(latency_ms - reply.batch.wall_seconds * 1000.0);
  phase.evaluated += reply.batch.total_evaluated;
  if (reaches_reference(reply.problem, job.reference)) ++phase.successes;
}

struct Pending {
  std::future<service::Reply> reply;
  Job job;
  Clock::time_point due;
};

/// Stamps and records every ready future in `pending`; returns how many.
std::size_t sweep(std::vector<Pending>& pending, Phase& phase, Outcome& out) {
  std::size_t done = 0;
  for (std::size_t i = 0; i < pending.size();) {
    if (pending[i].reply.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const auto ready = Clock::now();
    const service::Reply reply = pending[i].reply.get();
    record(phase, out, pending[i].job, reply,
           ms_between(pending[i].due, ready));
    pending[i] = std::move(pending.back());
    pending.pop_back();
    ++done;
  }
  return done;
}

}  // namespace

double Phase::p99() const {
  std::vector<double> slices;
  const std::size_t n = latency_ms.size();
  for (std::size_t s = 0; s < kSlices; ++s) {
    const auto first = latency_ms.begin() + static_cast<long>(s * n / kSlices);
    const auto last =
        latency_ms.begin() + static_cast<long>((s + 1) * n / kSlices);
    if (first != last) slices.push_back(percentile({first, last}, 0.99));
  }
  return median(slices);
}

void Phase::absorb(const Phase& round) {
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(latency_ms, round.latency_ms);
  append(lag_ms, round.lag_ms);
  append(overhead_ms, round.overhead_ms);
  for (std::size_t i = 0; i < round.done_s.size(); ++i) {
    if (round.done_s[i] >= round.seconds) continue;
    done_s.push_back(seconds + round.done_s[i]);
    done_evaluated.push_back(round.done_evaluated[i]);
  }
  completed += round.completed;
  successes += round.successes;
  evaluated += round.evaluated;
  busy_seconds += round.busy_seconds;
  seconds += round.seconds;
  next_job = round.next_job;
}

double Phase::rate(bool qubo) const {
  // Per window (a round of an untraced run), the work completed after its
  // first completion over the time from its first to its last, pooled
  // over the windows.  Whole-window counts would quantize a slow
  // workload's rate to multiples of 1/window, and a median of windows
  // moved with which of fig10_qkp's unequal instances a window held.
  struct Window {
    double first = 0.0, last = 0.0, work = 0.0;
    std::size_t count = 0;
  };
  std::vector<Window> windows(kSlices);
  const double width = seconds / kSlices;
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(done_s[i] / width);
    if (w >= kSlices) continue;
    Window& win = windows[w];
    if (win.count++ == 0) {
      win.first = done_s[i];
    } else {
      win.work += qubo ? static_cast<double>(done_evaluated[i]) : 1.0;
    }
    win.last = done_s[i];
  }
  double work = 0.0;
  double span = 0.0;
  for (const Window& win : windows) {
    work += win.work;
    span += win.last - win.first;
  }
  return span > 0.0 ? work / span : static_cast<double>(completed) / seconds;
}

void SetupTimer::sample(double seconds) {
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    std::size_t reps = 0;
    double wall = 0.0;
    do {
      setup_();
      ++reps;
      wall = seconds_between(t0, Clock::now());
    } while (wall < kSetupBlockSeconds);
    per_setup_.push_back(wall / static_cast<double>(reps));
  } while (seconds_between(start, Clock::now()) < seconds);
}

void warm_pool() {
  runtime::ExecutorPool::global().run(cores(), [](std::size_t) {});
}

std::size_t warm_up(service::Service& svc, const JobFn& jobs,
                    std::size_t first, Outcome& out) {
  return saturation(svc, jobs, first, 2 * cores(), kWarmupSeconds, out)
      .next_job;
}

Phase closed_loop(service::Service& svc, const JobFn& jobs, std::size_t first,
                  double seconds, Outcome& out) {
  Phase phase;
  phase.next_job = first;
  phase.seconds = seconds;
  const auto start = phase.start = Clock::now();
  while (phase.completed == 0 ||
         seconds_between(start, Clock::now()) < seconds) {
    const Job job = jobs(phase.next_job++);
    const auto t0 = Clock::now();
    const service::Reply reply = svc.solve(job.request);
    const auto t1 = Clock::now();
    phase.busy_seconds += seconds_between(t0, t1);
    record(phase, out, job, reply, ms_between(t0, t1));
  }
  return phase;
}

Phase saturation(service::Service& svc, const JobFn& jobs, std::size_t first,
                 std::size_t outstanding, double seconds, Outcome& out) {
  Phase phase;
  phase.next_job = first;
  phase.seconds = seconds;
  std::vector<Pending> pending;
  const auto start = phase.start = Clock::now();
  for (;;) {
    while (seconds_between(start, Clock::now()) < seconds &&
           pending.size() < outstanding) {
      Job job = jobs(phase.next_job++);
      const auto sent = Clock::now();
      auto reply = svc.submit(job.request);
      pending.push_back(Pending{std::move(reply), std::move(job), sent});
    }
    if (pending.empty()) break;
    if (sweep(pending, phase, out) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
    }
  }
  return phase;
}

Phase concurrent_callers(service::Service& svc, const JobFn& jobs,
                         std::size_t first, unsigned callers, double seconds,
                         Outcome& out) {
  Phase phase;
  phase.seconds = seconds;
  std::mutex mutex;  // guards phase, out, and next
  std::size_t next = first;
  const auto start = phase.start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::size_t i = 0;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (seconds_between(start, Clock::now()) >= seconds) return;
          i = next++;
        }
        const Job job = jobs(i);
        const auto t0 = Clock::now();
        const service::Reply reply = svc.solve(job.request);
        const double latency = ms_between(t0, Clock::now());
        const std::lock_guard<std::mutex> lock(mutex);
        record(phase, out, job, reply, latency);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.next_job = next;
  return phase;
}

Phase open_loop(service::Service& svc, const JobFn& jobs, std::size_t first,
                double rate, double seconds, std::uint64_t seed,
                Outcome& out) {
  std::vector<double> due_s;
  util::Rng arrivals(seed);
  for (double t = -std::log(1.0 - arrivals.uniform()) / rate; t < seconds;
       t += -std::log(1.0 - arrivals.uniform()) / rate) {
    due_s.push_back(t);
  }
  Phase phase;
  phase.next_job = first + due_s.size();
  phase.seconds = seconds;
  phase.lag_ms.resize(due_s.size());

  std::mutex mutex;
  std::vector<Pending> handed;  // guarded by mutex
  bool sending = true;          // guarded by mutex
  const auto origin = phase.start =
      Clock::now() + std::chrono::milliseconds(1);
  std::thread sender([&] {
    for (std::size_t k = 0; k < due_s.size(); ++k) {
      Job job = jobs(first + k);
      const auto due =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[k]));
      std::this_thread::sleep_until(due);
      phase.lag_ms[k] = ms_between(due, Clock::now());
      auto reply = svc.submit(job.request);
      const std::lock_guard<std::mutex> lock(mutex);
      handed.push_back(Pending{std::move(reply), std::move(job), due});
    }
    const std::lock_guard<std::mutex> lock(mutex);
    sending = false;
  });

  std::vector<Pending> pending;
  for (;;) {
    bool more = true;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      for (Pending& p : handed) pending.push_back(std::move(p));
      handed.clear();
      more = sending;
    }
    if (!more && pending.empty()) break;
    sweep(pending, phase, out);
    std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
  }
  sender.join();
  return phase;
}

void traced_replay(service::Service& svc, LayerReplay& replay,
                   const JobFn& jobs, std::size_t count, Trace& trace,
                   LayerLedger& ledger, LayerExtras& extras, Outcome& out) {
  auto previous = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Job job = jobs(i);
    const auto t0 = Clock::now();
    const service::Reply direct = svc.solve(job.request);
    const auto t1 = Clock::now();
    extras.lag_ms.push_back(ms_between(previous, t0));
    extras.untraced_seconds += seconds_between(t0, t1);
    extras.overhead_ms.push_back(ms_between(t0, t1) -
                                 direct.batch.wall_seconds * 1000.0);
    account(out, job.request.instance, direct);

    const service::Reply traced = replay.solve(job.request, i, trace, ledger);
    previous = Clock::now();
    const bool same = traced.batch.best_x == direct.batch.best_x &&
                      traced.batch.best_energy == direct.batch.best_energy &&
                      traced.batch.total_evaluated ==
                          direct.batch.total_evaluated &&
                      traced.problem.value == direct.problem.value &&
                      traced.cache_hit == direct.cache_hit;
    if (!same) {
      ++out.failed;
      if (out.mismatches++ < 5) {
        out.note("traced replay differs from Service::solve on request " +
                 std::to_string(i));
      }
    }
  }
}

void emit_end_to_end(Outcome& out, double setup_s, const Phase& main,
                     const Phase& peak, const Phase& sat, double qubo_per_s,
                     double success_pct) {
  // A failed request's +inf latency would not print as JSON; it reads as
  // an impossibly late reply instead.
  const auto finite = [](double v) { return std::isfinite(v) ? v : 1e12; };
  out.add("setup_s", setup_s, "s");
  out.add("latency_ms_p50", finite(percentile(main.latency_ms, 0.5)), "ms");
  out.add("qubo_per_s", qubo_per_s, "1/s");
  out.add("success_pct", success_pct, "%");
  out.add("peak_latency_ms_p50", finite(percentile(peak.latency_ms, 0.5)),
          "ms");
  out.add("throughput_rps", sat.rate(), "1/s");
  out.add("ok_share",
          out.attempted > 0
              ? 1.0 - static_cast<double>(out.failed) / out.attempted
              : 0.0,
          "ratio");
  // The p99s are printed, not gated: on a shared 4-core machine their
  // run-to-run spread exceeded the largest allowed bound.
  out.note("latency p99 " + std::to_string(finite(main.p99())) + " ms over " +
           std::to_string(main.latency_ms.size()) + " samples; peak p99 " +
           std::to_string(finite(peak.p99())) + " ms over " +
           std::to_string(peak.latency_ms.size()) + "; saturation " +
           std::to_string(sat.completed) + " completions");
}

void run_closed_workload(const Options& options,
                         const ClosedWorkload& workload, Outcome& out,
                         Trace& trace) {
  service::Service svc(workload.config);
  warm_pool();
  const JobFn jobs = [&](std::size_t i) {
    return workload.job(options.width, i);
  };
  if (!options.trace) {
    SetupTimer setup(workload.setup);
    std::size_t next = warm_up(svc, jobs, 0, out);
    setup.sample(kSetupSampleSeconds);
    // Peak: concurrent width-1 callers on half the cores, the main
    // phase's footprint.  One caller per core measured the host's
    // scheduler: ten runs on a shared 4-core VM spread 0.25 on the peak
    // p50 and 0.32 on throughput.
    const JobFn serial_jobs = [&](std::size_t i) { return workload.job(1, i); };
    const unsigned callers = std::max(1u, cores() / 2);
    const double round_s = 0.5 * options.seconds / kSlices;
    Phase main;
    Phase peak;
    for (std::size_t r = 0; r < kSlices; ++r) {
      main.absorb(closed_loop(svc, jobs, next, round_s, out));
      peak.absorb(concurrent_callers(svc, serial_jobs, main.next_job, callers,
                                     round_s, out));
      next = peak.next_job;
      setup.sample(kSetupSampleSeconds);
    }
    emit_end_to_end(out, setup.seconds_per_setup(), main, peak, peak,
                    main.evaluated / main.busy_seconds,
                    100.0 * main.successes / main.completed);
    return;
  }

  LayerReplay replay(workload.config);
  LayerLedger ledger;
  LayerExtras extras;
  extras.pool_before = svc.stats().pool;
  traced_replay(svc, replay, jobs, workload.traced_requests, trace, ledger,
                extras, out);
  if (workload.traced_extra) workload.traced_extra(trace, extras, out);
  extras.pool_after = svc.stats().pool;
  if (!emit_per_layer(out, trace, ledger, extras)) {
    out.note("layer sum outside tolerance");
    ++out.mismatches;
  }
}

}  // namespace hycimbench
