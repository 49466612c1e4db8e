#pragma once
// Sample statistics used by every perfbench metric.
//
// Timings are reported as a median plus the highest standard percentile that
// still has at least ten samples beyond it (so a "p99" is never one outlier),
// together with the sample count.  Quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so the spread a
// run reports matches the spread computed over repeated runs.  Kept apart
// from tunespace::util so that a library change cannot move the benchmark's
// own arithmetic.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it.  0 when empty.
double percentile(std::vector<double> values, double p);

/// Samples strictly after the nearest-rank position of percentile `p`.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of the standard percentiles {99.9, 99, 95, 90, 75, 50} that
/// leaves at least `min_beyond` samples beyond its nearest-rank position;
/// nullopt when even the median does not.
std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Quartiles by Python's statistics.quantiles(values, n=4) "exclusive"
/// method.  Requires at least two values.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

/// Interquartile range as a share of the median, (q3 - q1) / median.
double iqr_share(const std::vector<double>& values);

/// A timing distribution as the benchmark reports it.
struct Distribution {
  std::size_t count = 0;
  double p50 = 0;
  double tail_pct = 50;  ///< which percentile `tail` is (see tail_percentile)
  double tail = 0;
};
Distribution distribution(const std::vector<double>& values);

}  // namespace perfbench
