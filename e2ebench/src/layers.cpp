#include "layers.hpp"

namespace e2e {

CellLayers& CellLayers::operator+=(const CellLayers& o) {
  transmissions += o.transmissions;
  rxScheduled += o.rxScheduled;
  reachRebuilds += o.reachRebuilds;
  rowsRebuilt += o.rowsRebuilt;
  nodeFramesSent += o.nodeFramesSent;
  framesSent += o.framesSent;
  framesDecoded += o.framesDecoded;
  macEnqueued += o.macEnqueued;
  macBroadcastSent += o.macBroadcastSent;
  macUnicastSent += o.macUnicastSent;
  macRetries += o.macRetries;
  macQueueDrops += o.macQueueDrops;
  probesSent += o.probesSent;
  probeBytesReceived += o.probeBytesReceived;
  dataBytesReceived += o.dataBytesReceived;
  pairsCompleted += o.pairsCompleted;
  queriesForwarded += o.queriesForwarded;
  dupQueriesForwarded += o.dupQueriesForwarded;
  dataForwarded += o.dataForwarded;
  dataDuplicates += o.dataDuplicates;
  faultsApplied += o.faultsApplied;
  faultsCleared += o.faultsCleared;
  handoffFrames += o.handoffFrames;
  return *this;
}

CellLayers collectLayers(mesh::harness::Simulation& sim) {
  CellLayers layers;
  for (std::size_t d = 0; d < sim.channelCount(); ++d) {
    const mesh::phy::ChannelStats& stats = sim.domainChannel(d).stats();
    layers.transmissions += stats.transmissions;
    layers.rxScheduled += stats.deliveriesScheduled;
    layers.reachRebuilds += stats.reachabilityRebuilds + stats.incrementalRebuilds;
    layers.rowsRebuilt += stats.rowsRebuilt;
  }
  for (std::size_t i = 0; i < sim.nodeCount(); ++i) {
    mesh::harness::MeshNode& node = sim.node(static_cast<mesh::net::NodeId>(i));
    layers.nodeFramesSent += node.radio().stats().framesSent;
    layers.pairsCompleted += node.neighborTable().stats().pairsCompleted;
  }
  const mesh::trace::CounterRegistry& counters = sim.counters();
  layers.framesSent = counters.value("phy.frames_sent");
  layers.framesDecoded = counters.value("phy.frames_delivered");
  layers.macEnqueued = counters.value("mac.enqueued");
  layers.macBroadcastSent = counters.value("mac.broadcast_sent");
  layers.macUnicastSent = counters.value("mac.unicast_sent");
  layers.macRetries = counters.value("mac.retries");
  layers.macQueueDrops = counters.value("mac.queue_tail_drops");
  layers.probesSent = counters.value("probe.sent");
  layers.probeBytesReceived = counters.value("app.rx_bytes.probe");
  layers.dataBytesReceived = counters.value("app.rx_bytes.data");
  layers.queriesForwarded = counters.value("route.queries_forwarded");
  layers.dupQueriesForwarded =
      counters.value("route.duplicate_queries_forwarded");
  layers.dataForwarded = counters.value("route.data_forwarded");
  layers.dataDuplicates = counters.value("route.data_duplicates");
  if (mesh::fault::FaultInjector* injector = sim.faultInjector()) {
    layers.faultsApplied = injector->stats().applied;
    layers.faultsCleared = injector->stats().cleared;
  }
  if (const mesh::gateway::GatewayRelay* relay = sim.gatewayRelay()) {
    layers.handoffFrames = relay->totalInjected();
  }
  return layers;
}

}  // namespace e2e
