// hycimbench: the repository benchmark program.
//
//   hycimbench --workload fig10_qkp|serve_mix|ladder_islands --seed N
//              --seconds S --trace 0|1 [--width W] [--out DIR]
//
// --trace 0 measures the workload for about S seconds and prints the
// end-to-end metrics; --trace 1 replays the workload's fixed traced request
// list layer by layer, prints the per-layer metrics, and writes the spans
// and exact work counts to DIR/trace_<workload>_<seed>_w<W>.json.  The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  Any output-check mismatch sets "correct" to false and the
// exit code to 1.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "measure.hpp"

namespace {

using namespace hycimbench;

int usage(const std::string& why) {
  std::cerr << "hycimbench: " << why
            << "\nusage: hycimbench --workload fig10_qkp|serve_mix|"
               "ladder_islands --seed N --seconds S --trace 0|1 "
               "[--width W] [--out DIR]\n";
  return 2;
}

std::string json_number(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--width") {
        options.width = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !(options.seconds > 0.0)) {
    return usage("--seed and a positive --seconds are required");
  }
  // Timings from an unoptimized build describe the build, not the code.
  if (build_type() != "Release") {
    return usage("refusing to measure a " + build_type() +
                 " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  // Default widths: the closed loops fan each request over half the
  // cores, because a fan over every core of a shared machine waits on
  // whichever core the host preempts (ten full-width runs on a shared
  // 4-core VM spread 0.21 on fig10_qkp's p50 and 0.47 on ladder_islands'
  // p99, while their width-1 phases spread at most 0.07); serve_mix's
  // small requests run one per core, in parallel.
  if (options.width == 0) {
    options.width =
        options.workload == "serve_mix" ? 1 : std::max(1u, cores() / 2);
  }

  std::cout << "hycimbench " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " width=" << options.width << " nproc=" << cores()
            << " build=" << build_type() << " compiler=\"" << compiler()
            << "\"\n";

  Outcome out;
  Trace trace;
  try {
    if (options.workload == "fig10_qkp") {
      run_fig10_qkp(options, out, trace);
    } else if (options.workload == "serve_mix") {
      run_serve_mix(options, out, trace);
    } else if (options.workload == "ladder_islands") {
      run_ladder_islands(options, out, trace);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "hycimbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (!options.trace) out.add("peak_rss_mb", peak_rss_mb(), "MB");

  for (const std::string& line : out.notes) std::cout << line << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  if (options.trace && !options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
    const std::string path =
        options.out_dir + "/trace_" + options.workload + "_" +
        std::to_string(options.seed) + "_w" + std::to_string(options.width) +
        ".json";
    write_trace(path, options, trace, out);
    std::cout << "trace: " << trace.spans().size() << " spans -> " << path
              << "\n";
  }

  const bool correct = out.mismatches == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : out.metrics) {
    std::cout << sep << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
