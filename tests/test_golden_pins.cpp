// Golden pins: fixed digests of the bit patterns of complete tuning results.
//
// The determinism and replay tests elsewhere compare a build against itself,
// so a change that shifts every driver the same way passes them.  These
// tests compare against constants recorded once and never edited: every
// optimizer through run_session and through a SessionStepper ask/tell replay
// (single- and two-objective), a warm-started session, and portfolio races
// with and without early-stop rules.  A failure prints the digest it got; a
// legitimate change to search behaviour must say so and re-record them.
//
// The snapshot pins do the same for construction: the save_snapshot bytes
// of every Table 2 space (columns, row table, posting lists, solve counters)
// with the wall-clock fields zeroed.  Snapshot round-trip tests compare a
// build with its own reload, so an index layout that changes on both sides
// passes them; these do not.  The two-worker parallel builds are pinned as
// well and must match the sequential bytes outside the method identity.
//
// The pins hold for the portable x86-64 baseline the default build and the
// sanitizer builds compile for.  Targets that fuse multiply-adds (any FMA
// target such as -march=native, and aarch64) round the models' arithmetic
// differently, so there only the agreement between drivers is checked.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/tuner/session.hpp"

using namespace tunespace;

namespace {

/// FNV-1a over raw bit patterns, kept local so the pins do not depend on
/// any library hash.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Digest& str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  Digest& measurement(const tuner::Measurement& m) {
    return f64(m.gflops).f64(m.watts);
  }
  Digest& run(const tuner::TuningRun& run) {
    str(run.method_name);
    f64(run.construction_seconds).f64(run.budget_seconds);
    f64(run.best_gflops).u64(run.evaluations);
    f64(run.best_score).measurement(run.best);
    u64(run.objectives.objectives.size());
    for (const auto& objective : run.objectives.objectives) {
      str(objective.name).u64(static_cast<std::uint64_t>(objective.direction));
      f64(objective.weight);
    }
    u64(run.trajectory.size());
    for (const auto& point : run.trajectory) {
      f64(point.time_seconds).f64(point.best_gflops).u64(point.evaluations);
      measurement(point.measurement);
    }
    u64(run.front.size());
    for (const auto& point : run.front) {
      u64(point.row).u64(point.parent_row).measurement(point.measurement);
      f64(point.time_seconds).u64(point.evaluations);
    }
    return *this;
  }
  Digest& portfolio(const tuner::PortfolioResult& result) {
    u64(result.members.size());
    for (const auto& member : result.members) {
      str(member.optimizer_name).u64(member.seed).run(member.run);
    }
    run(result.merged);
    return u64(result.winner).u64(result.early_stopped ? 1 : 0);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

#if defined(__FMA__) || defined(__aarch64__)
constexpr bool kPinnedCodegen = false;
#else
constexpr bool kPinnedCodegen = true;
#endif

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Medium space: large enough that no optimizer sweeps it within the
/// budget, so every search strategy shapes its own trajectory.
tuner::TuningProblem pin_spec() {
  tuner::TuningProblem spec("pins");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8, 16})
      .add_param("tile", {1, 2, 3, 4})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("16 <= block_size_x * block_size_y <= 1024");
  spec.add_constraint("tile <= block_size_y");
  return spec;
}

/// The 26-row space the portfolio tests race over: small enough that
/// members re-request each other's rows and sweep it.
tuner::TuningProblem small_spec() {
  tuner::TuningProblem spec("small");
  spec.add_param("block_size_x", {8, 16, 32, 64, 128})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 512");
  return spec;
}

tuner::TuningOptions pin_options(std::uint64_t seed, bool two_objectives) {
  tuner::TuningOptions options;
  options.budget_seconds = 150.0;
  options.seed = seed;
  options.fixed_construction_seconds = 2.0;
  if (two_objectives) {
    options.objectives = tuner::ObjectiveSpec::perf_and_power(1.0, 0.5);
  }
  return options;
}

tuner::TuningRun closed_loop(const searchspace::SubSpace& view,
                             const std::string& optimizer,
                             const tuner::TuningOptions& options) {
  tuner::HotspotModel model;
  auto opt = tuner::make_optimizer(optimizer);
  return tuner::run_session(
      tuner::make_session_request(view, model, *opt, options, "pins"));
}

tuner::TuningRun ask_tell(const searchspace::SubSpace& view,
                          const std::string& optimizer,
                          const tuner::TuningOptions& options) {
  tuner::HotspotModel model;
  auto opt = tuner::make_optimizer(optimizer);
  tuner::SessionStepper stepper(
      view, "pins", view.parent().construction_seconds(), *opt, options,
      [&model](const tuner::Measurement& m) {
        return model.evaluation_cost(m.gflops);
      });
  while (auto ask = stepper.suggest()) {
    stepper.report(model.measure(stepper.param_names(), ask->config));
  }
  return stepper.take_run();
}

struct SessionPin {
  const char* optimizer;
  std::uint64_t single;
  std::uint64_t two_objectives;
};

// Recorded once; see the file comment before changing any of these.
constexpr SessionPin kSessionPins[] = {
    {"random-sampling", 0xaced994e9aef1806ULL,
     0x30a4a81e302b4501ULL},
    {"genetic-algorithm", 0xbb8a6ca27c4e24d3ULL,
     0x4b972360e0d5608dULL},
    {"simulated-annealing", 0x9c0aa162b82e51c7ULL,
     0xe0f924c81733ae12ULL},
    {"hill-climbing", 0xca74b3afb67cc34cULL,
     0xb60d69707da620b7ULL},
    {"differential-evolution", 0x237c5c15f2d47704ULL,
     0xd8164aed773cd406ULL},
    {"nsga2", 0x07361ab4d35b2ac6ULL,
     0x55d8484f38832e03ULL},
    {"surrogate", 0xeef3a908ddf48a95ULL,
     0x00d3a146c10b9bf5ULL},
};
constexpr std::uint64_t kWarmStartPin = 0x35e1a6a2e5d24dd7ULL;
constexpr std::uint64_t kPlainRacePin = 0xf926eefd92bf36a4ULL;
constexpr std::uint64_t kStallRacePin = 0xbab7f7d23d0c96b3ULL;
constexpr std::uint64_t kTargetRacePin = 0xbdb47fe59f955378ULL;
constexpr std::uint64_t kTwoObjectiveRacePin = 0x5bbe8df3686e4d3aULL;

tuner::PortfolioResult race(const searchspace::SubSpace& view,
                            std::uint64_t root_seed, double stall_seconds,
                            double target_gflops, bool two_objectives) {
  tuner::PortfolioOptions options;
  options.base = pin_options(root_seed, two_objectives);
  options.stall_seconds = stall_seconds;
  options.target_gflops = target_gflops;
  tuner::HotspotModel model;
  return tuner::run_portfolio(view, model, tuner::default_portfolio(), options);
}

// Snapshot header offsets (see the layout in searchspace/io.cpp).
constexpr std::size_t kFingerprintOffset = 16;
constexpr std::size_t kParallelTasksOffset = 72;
constexpr std::size_t kParallelWorkersOffset = 80;
constexpr std::size_t kTimingOffset = 88;  // preprocess, search, construction

/// Digest of `space`'s snapshot bytes with the three wall-clock fields
/// zeroed.  With `mask_method`, the fields naming how the space was built
/// (spec+method fingerprint, parallel task and worker counts) are zeroed
/// too, so a parallel build can be compared with the sequential one.
std::uint64_t snapshot_digest(const searchspace::SearchSpace& space,
                              bool mask_method = false) {
  const auto path = std::filesystem::temp_directory_path() /
                    "tunespace-golden-pins-snapshot.tss";
  searchspace::save_snapshot(space, path.string());
  std::ifstream file(path, std::ios::binary);
  std::stringstream contents;
  contents << file.rdbuf();
  file.close();
  std::filesystem::remove(path);
  std::string bytes = contents.str();
  if (bytes.size() < kTimingOffset + 24) return 0;
  auto zero = [&bytes](std::size_t offset, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) bytes[offset + i] = 0;
  };
  zero(kTimingOffset, 24);
  if (mask_method) {
    zero(kFingerprintOffset, 8);
    zero(kParallelTasksOffset, 8);
    zero(kParallelWorkersOffset, 4);
  }
  return Digest().bytes(bytes.data(), bytes.size()).value();
}

struct SnapshotPin {
  const char* space;
  std::uint64_t digest;
};

// Recorded once; see the file comment before changing any of these.
constexpr SnapshotPin kSnapshotPins[] = {
    {"Dedispersion", 0x3f9b07d9418c3966ULL},
    {"ExpDist", 0x534dba34eb4bf4f4ULL},
    {"Hotspot", 0xb1d799327f401a9aULL},
    {"GEMM", 0xa0eaeb1a72038df4ULL},
    {"MicroHH", 0xfcc86e72e8c77920ULL},
    {"ATF PRL 2x2", 0x1dde09e8c2aeed4eULL},
    {"ATF PRL 4x4", 0xede72f10c7cc3ea3ULL},
    {"ATF PRL 8x8", 0xedf194aa156a7c0dULL},
};
constexpr SnapshotPin kParallelSnapshotPins[] = {
    {"Hotspot", 0x10b15f4ef2d840c7ULL},
    {"GEMM", 0x7b933cb701316891ULL},
};

}  // namespace

TEST(GoldenPins, EveryOptimizerClosedLoopAndAskTell) {
  const searchspace::SearchSpace space(pin_spec());
  const searchspace::SubSpace view(space);
  ASSERT_EQ(std::size(kSessionPins), tuner::optimizer_names().size());
  for (const SessionPin& pin : kSessionPins) {
    for (const bool two : {false, true}) {
      const std::uint64_t expected = two ? pin.two_objectives : pin.single;
      const auto options = pin_options(31, two);
      const std::uint64_t loop =
          Digest().run(closed_loop(view, pin.optimizer, options)).value();
      const std::uint64_t replay =
          Digest().run(ask_tell(view, pin.optimizer, options)).value();
      EXPECT_EQ(replay, loop) << pin.optimizer << (two ? " two-objective" : "");
      if (kPinnedCodegen) {
        EXPECT_EQ(loop, expected)
            << pin.optimizer << (two ? " two-objective" : "")
            << " digest " << hex(loop);
      }
    }
  }
}

TEST(GoldenPins, WarmStartedSession) {
  if (!kPinnedCodegen) GTEST_SKIP() << "pins recorded without fused multiply-add";
  const searchspace::SearchSpace space(pin_spec());
  const searchspace::SubSpace view(space);
  tuner::HotspotModel model;
  tuner::SharedEvalCache cache;
  const std::uint64_t fp = 0x5eed;
  tuner::GeneticAlgorithm first;
  auto cold = tuner::make_session_request(view, model, first,
                                          pin_options(5, false), "pins");
  cold.shared_cache = &cache;
  cold.cache_fingerprint = fp;
  tuner::run_session(cold);

  tuner::SurrogateGuided second;
  auto warm_options = pin_options(6, false);
  warm_options.warm_start = true;
  auto warm =
      tuner::make_session_request(view, model, second, warm_options, "pins");
  warm.shared_cache = &cache;
  warm.cache_fingerprint = fp;
  const std::uint64_t got = Digest().run(tuner::run_session(warm)).value();
  EXPECT_EQ(got, kWarmStartPin) << "warm-start digest " << hex(got);
}

TEST(GoldenPins, PortfolioRaces) {
  if (!kPinnedCodegen) GTEST_SKIP() << "pins recorded without fused multiply-add";
  const searchspace::SearchSpace small(small_spec());
  const searchspace::SearchSpace medium(pin_spec());
  const auto plain = race(small, 99, 0, 0, false);
  const auto stall = race(medium, 13, 10.0, 0, false);
  const auto target = race(medium, 5, 0, 650.0, false);
  const auto two = race(medium, 21, 0, 0, true);
  EXPECT_TRUE(stall.early_stopped);
  EXPECT_TRUE(target.early_stopped);
  const std::uint64_t got_plain = Digest().portfolio(plain).value();
  const std::uint64_t got_stall = Digest().portfolio(stall).value();
  const std::uint64_t got_target = Digest().portfolio(target).value();
  const std::uint64_t got_two = Digest().portfolio(two).value();
  EXPECT_EQ(got_plain, kPlainRacePin) << "plain race digest " << hex(got_plain);
  EXPECT_EQ(got_stall, kStallRacePin) << "stall race digest " << hex(got_stall);
  EXPECT_EQ(got_target, kTargetRacePin)
      << "target race digest " << hex(got_target);
  EXPECT_EQ(got_two, kTwoObjectiveRacePin)
      << "two-objective race digest " << hex(got_two);
}

TEST(GoldenPins, RealWorldSnapshotBytes) {
  const auto suite = spaces::all_realworld();
  ASSERT_EQ(suite.size(), std::size(kSnapshotPins));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(suite[i].name, kSnapshotPins[i].space);
    const searchspace::SearchSpace space(suite[i].spec);
    const std::uint64_t got = snapshot_digest(space);
    EXPECT_EQ(got, kSnapshotPins[i].digest)
        << suite[i].name << " snapshot digest " << hex(got);
  }
}

TEST(GoldenPins, ParallelSnapshotBytes) {
  solver::SolverOptions options;
  options.threads = 2;
  for (const SnapshotPin& pin : kParallelSnapshotPins) {
    const auto rw = pin.space == std::string("Hotspot") ? spaces::hotspot()
                                                        : spaces::gemm();
    ASSERT_EQ(rw.name, pin.space);
    const searchspace::SearchSpace sequential(rw.spec);
    const searchspace::SearchSpace parallel(rw.spec, options);
    const std::uint64_t got = snapshot_digest(parallel);
    EXPECT_EQ(got, pin.digest) << pin.space << " parallel snapshot digest "
                               << hex(got);
    EXPECT_EQ(snapshot_digest(parallel, true), snapshot_digest(sequential, true))
        << pin.space;
  }
}
