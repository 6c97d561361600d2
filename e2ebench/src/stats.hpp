#pragma once
// Order statistics and the derived per-layer ratios the benchmark reports.

#include <cstdint>
#include <vector>

namespace e2e {

// Median of `values` (mean of the middle pair for even sizes). 0 if empty.
double median(std::vector<double> values);

// First, second and third quartile with the same "exclusive" method as
// Python's statistics.quantiles(values, n=4), so the spreads the benchmark
// prints match what a Python check computes from its outputs. Needs at
// least two values; a single value yields it three times.
struct Quartiles {
  double q1{0.0};
  double q2{0.0};
  double q3{0.0};
};
Quartiles quartiles(std::vector<double> values);

// Share of the runner's worker capacity spent inside runs:
// sum of per-run wall / (jobs x sweep wall). 0 when the sweep took no time.
double busyRatio(double summedRunWallS, std::size_t jobs, double sweepWallS);

// max / mean of the per-domain frame counts. A single domain, or none,
// is perfectly balanced (1.0); all-zero counts are too.
double frameImbalance(const std::vector<std::uint64_t>& framesPerDomain);

}  // namespace e2e
