// Load generators shared by the workloads: set-up timing, the closed-loop
// single caller, the saturation phase (K outstanding submits), and the
// open-loop Poisson sender with a ready-time collector.
#pragma once

#include <functional>

#include "measure.hpp"
#include "replay.hpp"

namespace hycimbench {

/// One request of a workload plus the reference value its reply's problem
/// value is judged against (paper Sec. 4.3: success = 95 % of it).
struct Job {
  service::Request request;
  double reference = 0.0;
};

/// Job i of a workload's deterministic request stream.
using JobFn = std::function<Job(std::size_t)>;

/// Times a workload's set-up.  Each sample runs the set-up back to back
/// for one block of kSetupBlockSeconds and records the wall per set-up, so
/// the timer's resolution and one preempted call barely count.  Workloads
/// sample at several points of a run, so one moment of a shared machine's
/// contention does not set the result.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}

  /// Times blocks of set-ups for about `seconds`.
  void sample(double seconds);
  /// The median wall of one set-up over every block so far, in seconds.
  double seconds_per_setup() const { return median(per_setup_); }

 private:
  std::function<void()> setup_;
  std::vector<double> per_setup_;  ///< one entry per block
};

/// Length of one timed block of set-ups, and the set-up timing each
/// sampling point spends.
inline constexpr double kSetupBlockSeconds = 0.02;
inline constexpr double kSetupSampleSeconds = 0.2;

/// Untimed load before set-up is timed and the phases start: a shared
/// virtual machine runs its first seconds of load measurably slower.
inline constexpr double kWarmupSeconds = 2.0;

/// Starts the shared pool's workers (they spawn lazily on first use).
void warm_pool();

/// Drives the workload untimed for kWarmupSeconds (every core busy) from
/// job `first` and returns the first job index not used.  Replies are
/// still checked.
std::size_t warm_up(service::Service& svc, const JobFn& jobs,
                    std::size_t first, Outcome& out);

/// Slices a phase is cut into for its robust statistics: a stall of the
/// shared machine then moves one slice, not the reported median.  An
/// untraced run also takes its phases in kSlices alternating rounds, so
/// each phase samples the whole run rather than one stretch of it.
inline constexpr std::size_t kSlices = 5;

/// What a phase measured.
struct Phase {
  std::vector<double> latency_ms;  ///< per completed request, in order
  std::vector<double> lag_ms;      ///< how late each request was sent
                                   ///< (open loop)
  std::vector<double> overhead_ms; ///< latency − the reply's batch wall
  std::vector<double> done_s;      ///< completion times since `start`
  std::vector<std::uint64_t> done_evaluated;  ///< QUBO computations each
  std::size_t completed = 0;
  std::size_t successes = 0;
  std::uint64_t evaluated = 0;     ///< QUBO computations
  double busy_seconds = 0.0;       ///< Σ call walls (closed loop)
  Clock::time_point start{};
  double seconds = 0.0;            ///< the measured window [0, seconds)
  std::size_t next_job = 0;        ///< first job index not issued

  /// p99 latency: each of kSlices consecutive slices of the samples gives
  /// its p99; the median of those.
  double p99() const;
  /// Appends a later round of the same phase: its samples, counts and
  /// time.  Completions after the round's window are left out of rate().
  void absorb(const Phase& round);
  /// Completions (qubo: QUBO computations) per second within kSlices
  /// equal windows of [0, seconds), each timed from its first to its last
  /// completion.
  double rate(bool qubo = false) const;
};

/// Closed loop, one caller: Service::solve on jobs first, first+1, ...
/// until `seconds` elapse (at least one request).
Phase closed_loop(service::Service& svc, const JobFn& jobs, std::size_t first,
                  double seconds, Outcome& out);

/// Saturation: one thread keeps `outstanding` submit()s in flight for
/// `seconds`, then drains.  Latency runs from submit to the moment the
/// future was seen ready (polled every kPollMicros).
Phase saturation(service::Service& svc, const JobFn& jobs, std::size_t first,
                 std::size_t outstanding, double seconds, Outcome& out);

/// Concurrent closed loops: `callers` threads each call Service::solve on
/// the next job of the stream until `seconds` elapse — the peak load of a
/// workload whose callers wait for their replies.
Phase concurrent_callers(service::Service& svc, const JobFn& jobs,
                         std::size_t first, unsigned callers, double seconds,
                         Outcome& out);

/// Open loop: a sender thread submits job first+k at its due time (seeded
/// Poisson arrivals at `rate` per second, drawn from `seed`) for `seconds`;
/// a collector thread stamps each reply when its future becomes ready.
/// Latency runs from the due time, so a late sender counts against it.
Phase open_loop(service::Service& svc, const JobFn& jobs, std::size_t first,
                double rate, double seconds, std::uint64_t seed, Outcome& out);

/// Collector polling period (the stated resolution of ready stamps).
inline constexpr int kPollMicros = 50;

/// Traced replay of jobs [0, count): for each job, an untraced
/// Service::solve on `svc` then the layer-by-layer replay, in turn.  Every
/// replay reply must equal the service's bit for bit (a mismatch fails the
/// run).  Fills `ledger`, `extras.untraced_seconds` and
/// `extras.overhead_ms`.
void traced_replay(service::Service& svc, LayerReplay& replay,
                   const JobFn& jobs, std::size_t count, Trace& trace,
                   LayerLedger& ledger, LayerExtras& extras, Outcome& out);

/// Emits the end-to-end metrics every workload shares: latency from
/// `main`, peak-load latency from `peak`, throughput from `sat`;
/// `qubo_per_s` and `success_pct` are the workload's own definitions.
void emit_end_to_end(Outcome& out, double setup_s, const Phase& main,
                     const Phase& peak, const Phase& sat, double qubo_per_s,
                     double success_pct);

/// A closed-loop workload: its request stream at a given batch width, the
/// set-up it times, and its traced run.
struct ClosedWorkload {
  service::ServiceConfig config;
  std::function<Job(unsigned width, std::size_t i)> job;
  std::function<void()> setup;
  std::size_t traced_requests = 0;
  /// Runs after the traced replay (fig10_qkp: the D-QUBO baseline leg);
  /// may be empty.
  std::function<void(Trace&, LayerExtras&, Outcome&)> traced_extra;
};

/// Drives a closed-loop workload on a Service of `workload.config`.
/// Untraced: warm-up, then kSlices rounds, each spending half of its share
/// of `options.seconds` with one caller at `options.width` and half with
/// width-1 callers on half the cores, set-up timed before and after every
/// round; prints the end-to-end metrics.  Traced: replays the first
/// `traced_requests` jobs layer by layer, then `traced_extra`; prints the
/// per-layer metrics.
void run_closed_workload(const Options& options,
                         const ClosedWorkload& workload, Outcome& out,
                         Trace& trace);

}  // namespace hycimbench
