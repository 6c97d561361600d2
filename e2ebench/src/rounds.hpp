#pragma once
// One round = one whole sweep of a workload's (topology, protocol) cells.
//
// The untraced round goes through runner::runComparisonSweep exactly as a
// user's sweep does. The traced round drives the same runner pieces
// (buildComparisonPlans, SnapshotCache, ThreadPool, Aggregator, the result
// sink) itself, so it can open a span around every call into the harness
// and read each finished Simulation's layer counters.

#include <vector>

#include "layers.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/run_plan.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

struct Round {
  bool traced{false};
  double wallS{0.0};  // from the first plan to the last record
  double cpuS{0.0};   // process user + system time during the round
  std::vector<mesh::runner::RunRecord> records;  // (topology, protocol) order
  // Traced rounds only: per-record layer counts, and the round's spans.
  std::vector<CellLayers> layers;
  std::vector<Span> spans;
};

// User + system CPU seconds of this process so far (getrusage).
double processCpuSeconds();
// Peak resident set of this process so far, in MiB (getrusage).
double peakRssMiB();

Round runUntracedRound(const Workload& workload,
                       mesh::runner::ResultSink* sink);
Round runTracedRound(const Workload& workload, mesh::runner::ResultSink* sink);

}  // namespace e2e
