// Tests for RNG, timers, table/format helpers and the task loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tunespace/util/rng.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"
#include "util/task_pool.hpp"

using namespace tunespace::util;

TEST(RngTest, DeterministicForSeed) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(8);
  auto idx = rng.sample_indices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto i : idx) EXPECT_LT(i, 100u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RngTest, SplitIndependentStreams) {
  Rng a(10);
  Rng b = a.split();
  EXPECT_NE(a(), b());
}

TEST(VirtualClockTest, Advances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);
  clock.reset();
  EXPECT_EQ(clock.now(), 0.0);
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  (void)x;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(TableTest, AlignedRender) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream ss;
  t.print_csv(ss);
  EXPECT_NE(ss.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(FormatTest, FmtSeconds) {
  EXPECT_EQ(fmt_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(fmt_seconds(0.005), "5 ms");
  EXPECT_EQ(fmt_seconds(2.5), "2.5 s");
  EXPECT_EQ(fmt_seconds(7200.0), "2 h");
}

TEST(FormatTest, FmtCount) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(2415919104ULL), "2,415,919,104");
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 3), "3.14");
  EXPECT_EQ(fmt_double(1000000.0, 4), "1e+06");
}

TEST(FormatTest, Sparkline) {
  const std::string s = sparkline({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(sparkline({}).empty());
  // Constant input renders at the lowest level without crashing.
  EXPECT_FALSE(sparkline({2, 2, 2}).empty());
}

TEST(TaskPoolTest, EachTaskRunsExactlyOnce) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> runs(100);
    std::vector<std::size_t> worker_of(runs.size());
    run_tasks(runs.size(), workers, [&](std::size_t worker, std::size_t task) {
      runs[task].fetch_add(1);
      worker_of[task] = worker;
    });
    for (std::size_t t = 0; t < runs.size(); ++t) {
      EXPECT_EQ(runs[t].load(), 1) << "workers " << workers << " task " << t;
      EXPECT_LT(worker_of[t], workers);
    }
  }
}

TEST(TaskPoolTest, WorkersCappedAtTaskCount) {
  EXPECT_EQ(task_workers(3, 8), 3u);
  EXPECT_EQ(task_workers(100, 8), 8u);
  EXPECT_EQ(task_workers(0, 8), 1u);
  EXPECT_EQ(task_workers(5, 0), 1u);
  std::mutex mutex;
  std::set<std::size_t> workers;
  std::set<std::thread::id> threads;
  run_tasks(3, 8, [&](std::size_t worker, std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(worker);
    threads.insert(std::this_thread::get_id());
  });
  for (std::size_t w : workers) EXPECT_LT(w, 3u);
  EXPECT_LE(threads.size(), 3u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);  // caller only joins
}

TEST(TaskPoolTest, ZeroTasksRunNothing) {
  for (std::size_t workers : {1u, 4u}) {
    std::atomic<int> runs{0};
    run_tasks(0, workers, [&](std::size_t, std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 0);
  }
}

TEST(TaskPoolTest, ExceptionRethrownAfterEveryThreadJoined) {
  for (std::size_t workers : {1u, 4u}) {
    std::atomic<int> in_flight{0};
    try {
      run_tasks(16, workers, [&](std::size_t, std::size_t task) {
        in_flight.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        in_flight.fetch_sub(1);
        if (task == 5) throw std::runtime_error("task 5");
      });
      ADD_FAILURE() << "no exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5");
    }
    EXPECT_EQ(in_flight.load(), 0) << "a task still ran after the rethrow";
  }
}

TEST(TaskPoolTest, ResolveWorkers) {
  EXPECT_EQ(resolve_workers(3), 3u);
  EXPECT_GE(resolve_workers(0), 1u);
}
