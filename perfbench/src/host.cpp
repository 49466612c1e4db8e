#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <time.h>

#include <chrono>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

// Receives the spin loop's result so the loop cannot be folded away.
volatile std::uint64_t spin_sink = 0;

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t parse_cache_kb(const std::string& text) {
  std::uint64_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value *= 1024;
  return value;
}

}  // namespace

HostFingerprint host_fingerprint(const std::string& codegen) {
  HostFingerprint host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&set))
                   : std::thread::hardware_concurrency();

  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string size = read_line(base + "/size");
    if (size.empty()) continue;
    const std::uint64_t kb = parse_cache_kb(size);
    if (kb > host.llc_kb) host.llc_kb = kb;
  }
  utsname name{};
  if (uname(&name) == 0) {
    host.kernel = std::string(name.sysname) + " " + name.release + " " +
                  name.machine;
  }
  host.codegen = codegen;
  return host;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.voluntary_switches = static_cast<double>(ru.ru_nvcsw);
  u.involuntary_switches = static_cast<double>(ru.ru_nivcsw);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.major_faults = static_cast<double>(ru.ru_majflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

Usage operator-(const Usage& after, const Usage& before) {
  Usage d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.voluntary_switches = after.voluntary_switches - before.voluntary_switches;
  d.involuntary_switches =
      after.involuntary_switches - before.involuntary_switches;
  d.minor_faults = after.minor_faults - before.minor_faults;
  d.major_faults = after.major_faults - before.major_faults;
  d.max_rss_mb = after.max_rss_mb;
  return d;
}

unsigned pin_to_last_cpus(unsigned count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  unsigned taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  }
  return taken;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double spin_ms() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  spin_sink = x;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench
