#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // position i*m/4 (1-based), linear interpolation between neighbours,
  // clamped to [1, n-1]. Integer arithmetic as in CPython.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double busyRatio(double summedRunWallS, std::size_t jobs, double sweepWallS) {
  const double capacity = static_cast<double>(jobs) * sweepWallS;
  return capacity > 0.0 ? summedRunWallS / capacity : 0.0;
}

double frameImbalance(const std::vector<std::uint64_t>& framesPerDomain) {
  if (framesPerDomain.size() <= 1) return 1.0;
  const std::uint64_t total = std::accumulate(
      framesPerDomain.begin(), framesPerDomain.end(), std::uint64_t{0});
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(framesPerDomain.size());
  const std::uint64_t most =
      *std::max_element(framesPerDomain.begin(), framesPerDomain.end());
  return static_cast<double>(most) / mean;
}

}  // namespace e2e
