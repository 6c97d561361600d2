#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>

namespace e2e {
namespace {

using mesh::harness::RunResults;
using mesh::harness::ScenarioConfig;

double windowSeconds(const ScenarioConfig& config) {
  return (config.traffic.stop - config.traffic.start).toSeconds();
}

void expectEqual(Failures& failures, const std::string& cell,
                 const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return;
  failures.push_back(cell + ": " + what + " = " + std::to_string(got) +
                     ", expected " + std::to_string(want));
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::uint64_t packetsPerSource(const ScenarioConfig& config) {
  const double packets = config.traffic.packetsPerSecond * windowSeconds(config);
  const double whole = std::round(packets);
  if (whole <= 0.0 || std::abs(packets - whole) > 1e-9) {
    throw std::invalid_argument("rate x traffic window is not a whole packet count");
  }
  return static_cast<std::uint64_t>(whole);
}

std::uint64_t expectedPacketsSent(const ScenarioConfig& config) {
  std::uint64_t sources = 0;
  for (const auto& group : config.groups) sources += group.sources.size();
  return sources * packetsPerSource(config);
}

std::uint64_t expectedDeliveries(const ScenarioConfig& config) {
  std::uint64_t fanout = 0;
  for (const auto& group : config.groups) {
    for (const auto source : group.sources) {
      fanout += static_cast<std::uint64_t>(
          std::count_if(group.members.begin(), group.members.end(),
                        [source](auto member) { return member != source; }));
    }
  }
  return fanout * packetsPerSource(config);
}

double expectedThroughputBps(const ScenarioConfig& config,
                             std::uint64_t delivered) {
  return static_cast<double>(delivered * config.traffic.payloadBytes * 8) /
         windowSeconds(config);
}

std::uint64_t faultsInsideRun(const ScenarioConfig& config) {
  const auto& events = config.faults.events();
  return static_cast<std::uint64_t>(
      std::count_if(events.begin(), events.end(), [&](const auto& event) {
        return event.start < config.duration;
      }));
}

void checkResults(const std::string& cell, const ScenarioConfig& config,
                  const RunResults& results, bool expectHandoff,
                  Failures& failures) {
  expectEqual(failures, cell, "packets_sent", results.packetsSent,
              expectedPacketsSent(config));
  expectEqual(failures, cell, "expected_deliveries", results.expectedDeliveries,
              expectedDeliveries(config));
  const double throughput = expectedThroughputBps(config, results.packetsDelivered);
  if (std::abs(results.throughputBps - throughput) > 1e-9 * std::max(1.0, throughput)) {
    failures.push_back(cell + ": throughput_bps = " +
                       std::to_string(results.throughputBps) + ", expected " +
                       std::to_string(throughput));
  }
  expectEqual(failures, cell, "faults_applied", results.faultsApplied,
              faultsInsideRun(config));
  std::uint64_t perGateway = 0;
  for (const auto& gateway : results.gatewayStats) perGateway += gateway.injected;
  expectEqual(failures, cell, "handoff_frames vs per-gateway sum",
              results.handoffFrames, perGateway);
  if (expectHandoff && results.handoffFrames == 0) {
    failures.push_back(cell + ": no frames crossed a gateway");
  }
}

void checkLayers(const std::string& cell, const CellLayers& layers,
                 const RunResults& results, bool hasGateways,
                 Failures& failures) {
  expectEqual(failures, cell, "radio frames sent vs channel transmissions",
              layers.framesSent, layers.transmissions);
  if (!hasGateways) {
    // Without gateway ports every radio belongs to a node.
    expectEqual(failures, cell, "node radio frames vs channel transmissions",
                layers.nodeFramesSent, layers.transmissions);
  }
  if (!results.channelFrames.empty()) {
    expectEqual(failures, cell, "sum of channel_frames vs transmissions",
                std::accumulate(results.channelFrames.begin(),
                                results.channelFrames.end(), std::uint64_t{0}),
                layers.transmissions);
  }
  // Multi-domain runs keep per-domain injectors the harness does not
  // expose; the single-domain injector must agree with the analyzer.
  if (results.channelFrames.empty()) {
    expectEqual(failures, cell, "injector faults vs results.faults_applied",
                layers.faultsApplied, results.faultsApplied);
  }
  expectEqual(failures, cell, "relay handoff vs results.handoff_frames",
              layers.handoffFrames, results.handoffFrames);
}

std::vector<std::size_t> checkSppOverOdmrp(
    const std::vector<mesh::runner::RunRecord>& records, Failures& failures) {
  std::map<std::size_t, std::map<std::string, double>> pdr;
  for (const auto& record : records) {
    if (record.ok) pdr[record.topologyIndex][record.protocolName] = record.results.pdr;
  }
  double spp = 0.0, odmrp = 0.0;
  std::vector<std::size_t> exceptions;
  for (auto& [topology, byName] : pdr) {
    if (byName.count("SPP") == 0 || byName.count("ODMRP") == 0) continue;
    spp += byName["SPP"];
    odmrp += byName["ODMRP"];
    if (!(byName["SPP"] > byName["ODMRP"])) exceptions.push_back(topology);
  }
  if (!(spp > odmrp)) {
    failures.push_back("mean SPP pdr not above mean ODMRP pdr (sums " +
                       std::to_string(spp) + " vs " + std::to_string(odmrp) + ")");
  }
  return exceptions;
}

bool sameResults(const RunResults& a, const RunResults& b) {
  const auto sameGateways = [&] {
    if (a.gatewayStats.size() != b.gatewayStats.size()) return false;
    for (std::size_t i = 0; i < a.gatewayStats.size(); ++i) {
      const auto& x = a.gatewayStats[i];
      const auto& y = b.gatewayStats[i];
      if (x.node != y.node || x.captured != y.captured ||
          x.injected != y.injected || x.residual != y.residual) {
        return false;
      }
    }
    return true;
  };
  return a.packetsSent == b.packetsSent &&
         a.expectedDeliveries == b.expectedDeliveries &&
         a.packetsDelivered == b.packetsDelivered && sameBits(a.pdr, b.pdr) &&
         sameBits(a.throughputBps, b.throughputBps) &&
         sameBits(a.meanDelayS, b.meanDelayS) &&
         a.probeBytesReceived == b.probeBytesReceived &&
         a.dataBytesReceived == b.dataBytesReceived &&
         a.controlBytesReceived == b.controlBytesReceived &&
         sameBits(a.probeOverheadPct, b.probeOverheadPct) &&
         a.macBroadcastsSent == b.macBroadcastsSent &&
         a.radioFramesCorrupted == b.radioFramesCorrupted &&
         a.eventsExecuted == b.eventsExecuted &&
         a.faultsApplied == b.faultsApplied &&
         a.faultsCleared == b.faultsCleared &&
         sameBits(a.faultWindowS, b.faultWindowS) &&
         sameBits(a.inWindowPdr, b.inWindowPdr) &&
         sameBits(a.outWindowPdr, b.outWindowPdr) &&
         sameBits(a.overheadInflation, b.overheadInflation) &&
         sameBits(a.meanTimeToRepairS, b.meanTimeToRepairS) &&
         a.repairsObserved == b.repairsObserved &&
         a.repairsUnresolved == b.repairsUnresolved &&
         a.channelFrames == b.channelFrames &&
         a.channelDelivered == b.channelDelivered &&
         a.gatewayCount == b.gatewayCount &&
         a.handoffFrames == b.handoffFrames && sameGateways();
}

}  // namespace e2e
