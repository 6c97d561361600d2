#pragma once
// Metric derivation and the JSON lines the benchmark prints.

#include <map>
#include <string>
#include <vector>

#include "rounds.hpp"
#include "workloads.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

// The five end-to-end metrics, from the untraced rounds.
std::vector<Metric> endToEndMetrics(const Workload& workload,
                                    const std::vector<Round>& rounds,
                                    double peakRss);

// One traced round's per-layer values, keyed by metric name (units come
// from perLayerUnits()).
std::map<std::string, double> layerValues(const Workload& workload,
                                          const Round& traced);

// Name -> unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& perLayerUnits();

// Per-layer metrics: the median of each value over the traced rounds,
// plus bench.span_overhead_pct from the traced and untraced round walls.
std::vector<Metric> perLayerMetrics(const Workload& workload,
                                    const std::vector<Round>& rounds);

// The benchmark's last stdout line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace e2e
