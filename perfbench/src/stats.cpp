#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  std::sort(values.begin(), values.end());
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t nearest_rank_index(std::size_t n, double p) {
  // p * n / 100, with the rounding error of decimal p (99.9) kept from
  // pushing an exact rank up by one.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank_index(values.size(), p)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - nearest_rank_index(n, p);
}

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 2) {
    const double v = n ? values[0] : 0;
    return {v, v, v};
  }
  // statistics.quantiles(method="exclusive"), quantile count 4: for cut i,
  // j = i*(n+1) // 4 clamped to [1, n-1], delta = i*(n+1) - 4*j (after the
  // clamp, so small samples extrapolate exactly as Python does).
  auto cut = [&](long i) {
    const long ld = static_cast<long>(n);
    const long m = ld + 1;
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

double iqr_share(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  const double mid = median(values);
  return mid != 0 ? (q.q3 - q.q1) / mid : 0;
}

Distribution distribution(const std::vector<double>& values) {
  Distribution d;
  d.count = values.size();
  if (values.empty()) return d;
  d.p50 = median(values);
  d.tail_pct = tail_percentile(values.size()).value_or(50.0);
  d.tail = d.tail_pct == 50.0 ? d.p50 : percentile(values, d.tail_pct);
  return d;
}

}  // namespace perfbench
