#pragma once
// Host fingerprint and resource accounting attached to every result, so a
// number can be told apart from the machine it ran on: core count, CPU
// model, last-level cache, kernel and codegen flags; getrusage deltas per
// workload phase; and a fixed reference spin loop timed before and after the
// workload (its drift is host noise, not code).

#include <cstdint>
#include <string>

namespace perfbench {

struct HostFingerprint {
  unsigned nproc = 0;          ///< CPUs this process may run on
  std::string cpu_model;
  std::uint64_t llc_kb = 0;    ///< largest cache level of cpu0, 0 if unknown
  std::string kernel;          ///< uname sysname release machine
  std::string codegen;         ///< compiler and flags of this build
};
HostFingerprint host_fingerprint(const std::string& codegen);

/// A getrusage(RUSAGE_SELF) reading; subtract two for a phase's delta.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double voluntary_switches = 0;
  double involuntary_switches = 0;
  double minor_faults = 0;
  double major_faults = 0;
  double max_rss_mb = 0;  ///< process peak so far (not a delta)
};
Usage usage_now();
Usage operator-(const Usage& after, const Usage& before);

/// CPU seconds used by all threads of this process so far.
double process_cpu_s();

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the last `count` CPUs it may run on (the first CPU is the one a VM most
/// often takes interrupts on); returns how many CPUs it now has.
unsigned pin_to_last_cpus(unsigned count);

/// Milliseconds one thread takes for a fixed integer loop.
double spin_ms();

}  // namespace perfbench
