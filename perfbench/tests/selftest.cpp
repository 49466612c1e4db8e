// Unit tests of the benchmark's own arithmetic: the statistics every metric
// is reported with and the span self-time computation of the traced run.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 1);
  EXPECT_EQ(samples_beyond(100, 99), 1u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  // p99 leaves exactly ten of 1000 samples beyond it; p99.9 leaves one.
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(999), 95.0);  // p99 leaves only nine
  EXPECT_EQ(tail_percentile(200), 95.0);  // p95 leaves ten
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_FALSE(tail_percentile(0).has_value());
}

TEST(Distribution, ReportsTailAndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Distribution d = distribution(v);
  EXPECT_EQ(d.count, 1000u);
  EXPECT_DOUBLE_EQ(d.p50, 500.5);
  EXPECT_EQ(d.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(d.tail, 990);
  // Too few samples for any tail: the median stands in.
  const Distribution small = distribution({5, 1, 3});
  EXPECT_DOUBLE_EQ(small.tail, small.p50);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const Quartiles b = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.q2, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5] (extrapolates)
  const Quartiles c = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.5);
  EXPECT_DOUBLE_EQ(c.q2, 2.0);
  EXPECT_DOUBLE_EQ(c.q3, 3.5);
}

TEST(Quartiles, IqrShareOfMedian) {
  // (8.25 - 2.75) / 5.5 == 1
  EXPECT_DOUBLE_EQ(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
  EXPECT_DOUBLE_EQ(iqr_share({5, 5, 5, 5}), 0.0);
}

Span make_span(const char* name, std::int64_t start, std::int64_t end,
               std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsChildCoverage) {
  // root [0,100) with children [10,30) and [50,60): self = 100 - 30 = 70.
  const std::vector<Span> spans = {
      make_span("bench.eval", 0, 100, -1),
      make_span("service.suggest", 10, 30, 0),
      make_span("service.report", 50, 60, 0),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,50) overlap: their union covers 40.
  const std::vector<Span> spans = {
      make_span("bench.session", 0, 100, -1),
      make_span("server.suggest", 10, 40, 0),
      make_span("server.report", 30, 50, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 60);
}

TEST(SelfTime, ChildrenClippedToParent) {
  // A child reaching past its parent only covers the parent's interval.
  const std::vector<Span> spans = {
      make_span("bench.pass", 100, 200, -1),
      make_span("searchspace.SearchSpace", 50, 150, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 50);
}

TEST(SelfTime, GrandchildrenOnlyReduceTheirParent) {
  const std::vector<Span> spans = {
      make_span("bench.decompose", 0, 100, -1),
      make_span("pipeline.build_problem", 0, 60, 0),
      make_span("solver.solve", 10, 50, 1),
  };
  const auto by_layer = self_ns_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("bench"), 40);
  EXPECT_DOUBLE_EQ(by_layer.at("pipeline"), 20);
  EXPECT_DOUBLE_EQ(by_layer.at("solver"), 40);
}

TEST(SpanBuffer, NestsAndMergesWithParentOffsets) {
  SpanBuffer first(true);
  {
    ScopedSpan outer(first, "bench.eval", 1);
    ScopedSpan inner(first, "service.suggest", 1);
  }
  SpanBuffer second(true);
  {
    ScopedSpan outer(second, "bench.eval", 2);
    ScopedSpan inner(second, "service.report", 2);
  }
  SpanBuffer off(false);
  { ScopedSpan ignored(off, "bench.eval", 3); }
  EXPECT_TRUE(off.spans().empty());

  Trace trace;
  trace.merge(std::move(first));
  trace.merge(std::move(second));
  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.spans()[3].parent, 2);
  EXPECT_EQ(trace.spans()[3].id, 2u);
  EXPECT_DOUBLE_EQ(trace.count("bench.eval"), 2);
  EXPECT_EQ(layer_of("service.report"), "service");
  EXPECT_EQ(layer_of("bench"), "bench");
}

}  // namespace
}  // namespace perfbench
