// Snapshot persistence benchmark: cold-solve vs warm-load on the real-world
// suite, emitted as BENCH_snapshot.json.
//
// For every Table 2 space the harness (1) resolves the space from scratch
// (pipeline + solve + index build), (2) saves a binary snapshot and lets
// SearchSpace::load_or_build populate its cache, (3) reloads through the
// cache-hit path (mmap + shape verification, the zero-copy fast path) and
// through an explicit fully-checksummed load, and (4) verifies the reloaded
// space is byte-identical to the fresh one: same CSV bytes, same Hamming-1
// neighbour sets, same Latin-Hypercube sample under the same seed.  An
// identity mismatch is a hard failure regardless of flags.
//
// CI gate:  bench_snapshot --min-speedup <x> [--out-dir <dir>]
// exits non-zero when (total cold seconds) / (total load_or_build warm
// seconds) across the suite drops below <x> — i.e. the cache hit must be at
// least <x> times faster than re-solving.  --out-dir keeps the .tss files
// (CI uploads them as artifacts); by default they go to a scratch dir that
// is removed on exit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/rng.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

namespace {

std::string csv_bytes(const searchspace::SearchSpace& space) {
  std::ostringstream os;
  searchspace::write_csv(space, os);
  return os.str();
}

/// Deep identity check between a fresh construction and its reload.
bool identical(const searchspace::SearchSpace& fresh,
               const searchspace::SearchSpace& loaded) {
  if (fresh.size() != loaded.size()) return false;
  if (csv_bytes(fresh) != csv_bytes(loaded)) return false;
  const std::size_t probe_rows = std::min<std::size_t>(fresh.size(), 64);
  for (std::size_t r = 0; r < probe_rows; ++r) {
    if (searchspace::neighbors_of(fresh, r) != searchspace::neighbors_of(loaded, r)) {
      return false;
    }
  }
  util::Rng rng_a(1234), rng_b(1234);
  return searchspace::latin_hypercube_sample(fresh, 32, rng_a) ==
         searchspace::latin_hypercube_sample(loaded, 32, rng_b);
}

struct SpaceReport {
  std::string name;
  std::size_t rows = 0;
  std::uintmax_t file_bytes = 0;
  double cold_seconds = 0;
  double index_seconds = 0;     // the row-table + posting-list share of cold
  double warm_seconds = 0;      // load_or_build cache hit (kShape, mmap)
  double verified_seconds = 0;  // explicit load_snapshot with kFull checksums
  bool identical = true;
  double speedup() const {
    return warm_seconds > 0 ? cold_seconds / warm_seconds : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  double gate_speedup = 0;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      gate_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--min-speedup <x>] [--out-dir <dir>]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool keep_snapshots = !out_dir.empty();
  if (out_dir.empty()) out_dir = "bench_snapshot_scratch";
  std::filesystem::create_directories(out_dir);

  const std::string cache_dir = out_dir + "/cache";
  const int warm_repeats = 3;
  std::vector<SpaceReport> reports;
  bool all_identical = true;

  bench::section("Snapshot persistence: cold solve vs warm zero-copy reload");
  util::Table table({"space", "rows", "file", "cold", "warm", "verified",
                     "speedup", "identical"});
  for (const auto& rw : spaces::all_realworld()) {
    SpaceReport report;
    report.name = rw.name;

    util::WallTimer timer;
    searchspace::SearchSpace fresh(rw.spec);
    report.cold_seconds = timer.seconds();
    report.index_seconds = fresh.index_seconds();
    report.rows = fresh.size();

    // Snapshot artifact (uploaded by CI); a copy pre-populates the
    // load_or_build cache so the warm runs hit without re-solving.
    const std::string path = out_dir + "/" + rw.name + ".tss";
    searchspace::save_snapshot(fresh, path);
    report.file_bytes = std::filesystem::file_size(path);
    std::filesystem::create_directories(cache_dir);
    std::filesystem::copy_file(path,
                               searchspace::snapshot_cache_entry(
                                   cache_dir, rw.spec, tuner::optimized_method()),
                               std::filesystem::copy_options::overwrite_existing);

    for (int rep = 0; rep < warm_repeats; ++rep) {
      timer.reset();
      searchspace::SearchSpace warm =
          searchspace::SearchSpace::load_or_build(rw.spec, cache_dir);
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < report.warm_seconds) report.warm_seconds = seconds;
      if (rep == 0) report.identical = identical(fresh, warm);

      timer.reset();
      searchspace::SearchSpace verified = searchspace::load_snapshot(
          rw.spec, path, searchspace::SnapshotVerify::kFull);
      const double vseconds = timer.seconds();
      if (rep == 0 || vseconds < report.verified_seconds) {
        report.verified_seconds = vseconds;
      }
      if (rep == 0) {
        report.identical = report.identical && identical(fresh, verified);
      }
    }
    all_identical = all_identical && report.identical;

    table.add_row({rw.name, std::to_string(report.rows),
                   std::to_string(report.file_bytes / 1024) + " KiB",
                   util::fmt_seconds(report.cold_seconds),
                   util::fmt_seconds(report.warm_seconds),
                   util::fmt_seconds(report.verified_seconds),
                   util::fmt_double(report.speedup(), 1) + "x",
                   report.identical ? "yes" : "NO"});
    std::fprintf(stderr, "[snapshot] %s done\n", rw.name.c_str());
    reports.push_back(std::move(report));
  }
  table.print(std::cout);

  double total_cold = 0, total_warm = 0, total_verified = 0;
  for (const auto& r : reports) {
    total_cold += r.cold_seconds;
    total_warm += r.warm_seconds;
    total_verified += r.verified_seconds;
  }
  const double total_speedup = total_warm > 0 ? total_cold / total_warm : 0;
  std::printf(
      "suite total: cold %.4fs, warm %.4fs (verified %.4fs), speedup %.1fx\n",
      total_cold, total_warm, total_verified, total_speedup);

  if (std::FILE* f = std::fopen("BENCH_snapshot.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"snapshot\",\n");
    std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
    std::fprintf(f, "  \"total_cold_seconds\": %.6f,\n", total_cold);
    std::fprintf(f, "  \"total_warm_seconds\": %.6f,\n", total_warm);
    std::fprintf(f, "  \"total_verified_seconds\": %.6f,\n", total_verified);
    std::fprintf(f, "  \"total_speedup\": %.2f,\n", total_speedup);
    std::fprintf(f, "  \"spaces\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const SpaceReport& r = reports[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"rows\": %zu, \"file_bytes\": %ju, "
                   "\"cold_seconds\": %.6f, \"index_seconds\": %.6f, "
                   "\"warm_seconds\": %.6f, "
                   "\"verified_seconds\": %.6f, "
                   "\"speedup\": %.2f, \"identical\": %s}%s\n",
                   r.name.c_str(), r.rows, r.file_bytes, r.cold_seconds,
                   r.index_seconds, r.warm_seconds, r.verified_seconds, r.speedup(),
                   r.identical ? "true" : "false",
                   i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_snapshot.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_snapshot.json\n");
  }

  if (!keep_snapshots) {
    std::error_code ec;
    std::filesystem::remove_all(out_dir, ec);
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a reloaded snapshot diverged from its fresh "
                 "construction (see table above)\n");
    return 1;
  }
  if (gate_speedup > 0 && total_speedup < gate_speedup) {
    std::fprintf(stderr,
                 "FAIL: suite warm/cold speedup %.1fx below the %.1fx gate\n",
                 total_speedup, gate_speedup);
    return 1;
  }
  return 0;
}
