// Shared measurement plumbing of the benchmark program: options, timing,
// percentiles, the output check, spans, and the result a workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hycim.hpp"

namespace hycimbench {

using namespace hycim;
using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Batch width per request (0 = the workload's default).
  unsigned width = 0;
  /// Where traced runs write their spans and exact counts.
  std::string out_dir;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Largest resident set size of this process so far, in MB.
double peak_rss_mb();

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): the result line's fields,
/// human-readable notes, and (traced runs) the exact work counts.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< non-kOk replies + output-check failures
  std::size_t mismatches = 0;  ///< output-check failures (exit non-zero)
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Exact, machine-independent counts (traced runs): the fingerprint.
  std::map<std::string, std::uint64_t> counts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Re-scores a reply's best configuration with the instance's own
/// objective and an exact feasibility recomputation, and compares with
/// what the service reported.  Returns an empty string when they agree,
/// otherwise what differs.
std::string check_reply(const cop::AnyInstance& instance,
                        const service::Reply& reply);

/// Records one reply in `out`: counts it attempted, and failed when its
/// status is not kOk or the output check disagrees (a mismatch).
/// Returns true when the reply is usable.
bool account(Outcome& out, const cop::AnyInstance& instance,
             const service::Reply& reply);

/// True when a reply's problem value reaches 95 % of `reference` in the
/// objective's own direction (paper Sec. 4.3's success criterion).
bool reaches_reference(const cop::ProblemReport& problem, double reference);

/// One span: a timed call at a layer boundary.  `parent` indexes the
/// span that caused it (-1 for a request root); spans of one request
/// share `request`.
struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder; written out once when the run ends.
class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Opens a span now; close() stamps its end.
  int open(const std::string& name, std::uint64_t request, int parent);
  void close(int span);
  /// Adds a span with explicit bounds (in microseconds since the origin).
  int add(const std::string& name, std::uint64_t request, int parent,
          double start_us, double end_us);
  double now_us() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time its children
  /// cover, summed over all spans of that name (microseconds).
  std::map<std::string, double> self_us() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Writes the traced run's spans, counts, and metrics as JSON.
void write_trace(const std::string& path, const Options& options,
                 const Trace& trace, const Outcome& out);

/// Run metadata printed on every run: core count, build type, compiler.
std::string build_type();
std::string compiler();
unsigned cores();

/// The workloads.  Each measures for options.seconds (untraced) or replays
/// its fixed traced request list (traced) and fills `out`.
void run_fig10_qkp(const Options& options, Outcome& out, Trace& trace);
void run_serve_mix(const Options& options, Outcome& out, Trace& trace);
void run_ladder_islands(const Options& options, Outcome& out, Trace& trace);

}  // namespace hycimbench
