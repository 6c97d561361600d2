#pragma once
// Per-layer counts read from a finished Simulation through each module's
// public stats() accessors and the run's counter registry.

#include <cstdint>

#include "mesh/harness/scenario.hpp"

namespace e2e {

struct CellLayers {
  // phy: Channel::stats() summed over collision domains.
  std::uint64_t transmissions{0};
  std::uint64_t rxScheduled{0};
  std::uint64_t reachRebuilds{0};  // full + incremental rebuild passes
  std::uint64_t rowsRebuilt{0};
  // phy: radios. Node radios via Radio::stats(); the registry totals also
  // count gateway port radios.
  std::uint64_t nodeFramesSent{0};
  std::uint64_t framesSent{0};
  std::uint64_t framesDecoded{0};
  // mac (registry: nodes and gateway ports).
  std::uint64_t macEnqueued{0};
  std::uint64_t macBroadcastSent{0};
  std::uint64_t macUnicastSent{0};
  std::uint64_t macRetries{0};
  std::uint64_t macQueueDrops{0};
  // metrics: probing (registry) and NeighborTable::stats().
  std::uint64_t probesSent{0};
  std::uint64_t probeBytesReceived{0};
  std::uint64_t dataBytesReceived{0};
  std::uint64_t pairsCompleted{0};
  // odmrp / maodv (registry route.*).
  std::uint64_t queriesForwarded{0};
  std::uint64_t dupQueriesForwarded{0};
  std::uint64_t dataForwarded{0};
  std::uint64_t dataDuplicates{0};
  // fault: FaultInjector::stats() (single-domain runs with faults).
  std::uint64_t faultsApplied{0};
  std::uint64_t faultsCleared{0};
  // gateway: GatewayRelay::totalInjected().
  std::uint64_t handoffFrames{0};

  CellLayers& operator+=(const CellLayers& other);
};

CellLayers collectLayers(mesh::harness::Simulation& sim);

}  // namespace e2e
