// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --list-workloads
//   perfbench --list-metrics <0|1>
//
// Runs one workload for the given wall time and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The line before it is a JSON report with the host fingerprint, per-phase
// resource accounting and sample counts.  Exits 1 when a correctness gate
// failed, 2 on a usage error.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_CODEGEN
#define PERFBENCH_CODEGEN "unknown"
#endif

namespace {

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n       %s --list-workloads | --list-metrics <0|1>\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.codegen = PERFBENCH_CODEGEN;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--list-workloads") {
        for (const auto& name : perfbench::workload_names()) std::printf("%s\n", name.c_str());
        return 0;
      } else if (arg == "--list-metrics" && has_value) {
        for (const auto& m : perfbench::metric_catalog(std::string(argv[++i]) == "1")) {
          std::printf("%s %s\n", m.name.c_str(), m.unit.c_str());
        }
        return 0;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
        have_workload = true;
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--work-dir" && has_value) {
        options.work_dir = argv[++i];
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (!have_workload || options.seconds <= 0) return usage(argv[0]);

  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s\n", e.what());
    return 2;
  }

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n%s\n", result.report_json.c_str(), line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
