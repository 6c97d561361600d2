#pragma once
// Output checks computed from the benchmark's own inputs, never from a
// stored copy of earlier output. Each check appends a message to
// `failures` when it does not hold.

#include <cstdint>
#include <string>
#include <vector>

#include "layers.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/runner/run_plan.hpp"

namespace e2e {

using Failures = std::vector<std::string>;

// CBR packets one source sends: rate x traffic window. The source's first
// packet lands at a random phase inside the first period and the last at
// or before the stop time, so a window of N whole periods holds exactly N
// packets. Throws when rate x window is not a whole number.
std::uint64_t packetsPerSource(const mesh::harness::ScenarioConfig& config);
// sources x rate x window over every group.
std::uint64_t expectedPacketsSent(const mesh::harness::ScenarioConfig& config);
// sent x members: each source's packets times the group's members other
// than the source itself.
std::uint64_t expectedDeliveries(const mesh::harness::ScenarioConfig& config);
// delivered x payload bits / traffic window.
double expectedThroughputBps(const mesh::harness::ScenarioConfig& config,
                             std::uint64_t delivered);
// Generated fault events that start inside the run.
std::uint64_t faultsInsideRun(const mesh::harness::ScenarioConfig& config);

// Checks on one run's RunResults against its scenario: packets sent,
// expected deliveries, throughput, faults applied, per-channel frame sums
// and the gateway handoff counters (> 0 when `expectHandoff`).
void checkResults(const std::string& cell,
                  const mesh::harness::ScenarioConfig& config,
                  const mesh::harness::RunResults& results, bool expectHandoff,
                  Failures& failures);

// Checks needing the finished Simulation's layers: radio frames sent ==
// channel transmissions == sum of per-channel frames, and the fault and
// gateway counters agree with RunResults.
void checkLayers(const std::string& cell, const CellLayers& layers,
                 const mesh::harness::RunResults& results, bool hasGateways,
                 Failures& failures);

// The paper's headline ordering: averaged over a sweep's topologies, SPP's
// PDR is above ODMRP's. Runs that failed, and topologies missing either
// protocol, are left out. Returns the topologies where SPP is not above
// ODMRP on its own; the paper claims the ordering only on average, and
// single topologies do break it.
std::vector<std::size_t> checkSppOverOdmrp(
    const std::vector<mesh::runner::RunRecord>& records, Failures& failures);

// Field-by-field equality of everything a run computes (the determinism
// property: repetitions and the traced run must agree exactly).
bool sameResults(const mesh::harness::RunResults& a,
                 const mesh::harness::RunResults& b);

}  // namespace e2e
