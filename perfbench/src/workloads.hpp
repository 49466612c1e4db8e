#pragma once
// The benchmark's workloads.  Each runs one end-to-end path of tunespace
// against inputs generated from the workload seed, for a fixed wall-time
// window, checks every output, and fills a Result with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< snapshots and trace files
  std::string codegen;                         ///< compiler + flags of this build
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Everything else worth keeping (host fingerprint, per-phase resource
  /// accounting, sample counts, tail percentiles): one JSON object printed
  /// on the line before the result.
  std::string report_json;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The metrics a run prints (value 0): the end-to-end set, or the
/// per-layer set of the traced run.
std::vector<Metric> metric_catalog(bool per_layer);

/// Run one workload; throws std::invalid_argument for an unknown name.
Result run_workload(const Options& options);

}  // namespace perfbench
