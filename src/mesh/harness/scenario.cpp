#include "mesh/harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "mesh/channelplan/domain_scheduler.hpp"
#include "mesh/common/assert.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/propagation.hpp"

namespace mesh::harness {

ScenarioConfig paperSimulationScenario() {
  ScenarioConfig config;
  config.nodeCount = 50;
  config.areaWidthM = 1000.0;
  config.areaHeightM = 1000.0;
  config.rayleighFading = true;
  config.duration = SimTime::seconds(std::int64_t{400});
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.start = SimTime::seconds(std::int64_t{30});
  config.traffic.stop = SimTime::seconds(std::int64_t{400});
  return config;
}

ScenarioConfig scaledSimulationScenario(std::size_t nodeCount) {
  MESH_REQUIRE(nodeCount > 0);
  ScenarioConfig config = paperSimulationScenario();
  config.nodeCount = nodeCount;
  // Constant density (50 nodes per km²): area grows linearly with n.
  const double side =
      1000.0 * std::sqrt(static_cast<double>(nodeCount) / 50.0);
  config.areaWidthM = side;
  config.areaHeightM = side;
  // Rejection sampling is O(n²) per attempt with a vanishing acceptance
  // rate at scale; the grid generator is O(n) and connected by
  // construction at this (constant) density.
  config.placement = Placement::Grid;
  return config;
}

std::vector<GroupSpec> makeRandomGroups(std::size_t nodeCount,
                                        std::size_t groupCount,
                                        std::size_t membersPerGroup,
                                        std::size_t sourcesPerGroup, Rng& rng) {
  MESH_REQUIRE(groupCount * (membersPerGroup + sourcesPerGroup) <= nodeCount);
  std::vector<net::NodeId> ids(nodeCount);
  std::iota(ids.begin(), ids.end(), net::NodeId{0});
  // Fisher-Yates with our deterministic Rng.
  for (std::size_t i = nodeCount - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
    std::swap(ids[i], ids[j]);
  }
  std::vector<GroupSpec> groups;
  std::size_t next = 0;
  for (std::size_t g = 0; g < groupCount; ++g) {
    GroupSpec spec;
    spec.group = static_cast<net::GroupId>(g + 1);
    for (std::size_t s = 0; s < sourcesPerGroup; ++s) spec.sources.push_back(ids[next++]);
    for (std::size_t m = 0; m < membersPerGroup; ++m) spec.members.push_back(ids[next++]);
    groups.push_back(std::move(spec));
  }
  return groups;
}

std::vector<GroupSpec> makeStripedGroups(std::size_t nodeCount,
                                         std::size_t channels,
                                         std::size_t groupsPerChannel,
                                         std::size_t membersPerGroup,
                                         std::size_t sourcesPerGroup,
                                         Rng& rng) {
  MESH_REQUIRE(channels >= 1);
  std::vector<GroupSpec> groups;
  for (std::size_t c = 0; c < channels; ++c) {
    // This residue class is exactly the node set of channel c under the
    // Static (id mod C) assignment; shuffle it independently per channel.
    std::vector<net::NodeId> ids;
    for (std::size_t i = c; i < nodeCount; i += channels) {
      ids.push_back(static_cast<net::NodeId>(i));
    }
    MESH_REQUIRE(groupsPerChannel * (membersPerGroup + sourcesPerGroup) <=
                 ids.size());
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      const auto j =
          static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
      std::swap(ids[i], ids[j]);
    }
    std::size_t next = 0;
    for (std::size_t g = 0; g < groupsPerChannel; ++g) {
      GroupSpec spec;
      spec.group = static_cast<net::GroupId>(g * channels + c + 1);
      for (std::size_t s = 0; s < sourcesPerGroup; ++s) {
        spec.sources.push_back(ids[next++]);
      }
      for (std::size_t m = 0; m < membersPerGroup; ++m) {
        spec.members.push_back(ids[next++]);
      }
      groups.push_back(std::move(spec));
    }
  }
  return groups;
}

bool snapshotEligible(const ScenarioConfig& config) {
  // The static-geometry subset: placement, reachability rows, channel plan
  // and gateway roster are all decided once at build time and never move.
  // Mobility rebuilds rows from live positions (a t=0 freeze would diverge
  // from the lazy first-transmission build) and custom link-model
  // factories own their geometry — both build from scratch.
  return !config.linkModelFactory && config.mobilityMaxSpeedMps == 0.0;
}

Simulation::Simulation(ScenarioConfig config) : config_{std::move(config)} {
  build();
}

Simulation::Simulation(ScenarioConfig config, TopologySnapshotPtr snapshot)
    : config_{std::move(config)}, adopted_{std::move(snapshot)} {
  MESH_REQUIRE(adopted_ != nullptr);
  MESH_REQUIRE(snapshotEligible(config_));
  build();
}

namespace {

bool diskGraphConnected(const std::vector<Vec2>& positions, double rangeM) {
  if (positions.empty()) return true;
  std::vector<std::size_t> parent(positions.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const double range2 = rangeM * rangeM;
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      if (positions[a].distanceSquaredTo(positions[b]) <= range2) {
        parent[find(a)] = find(b);
      }
    }
  }
  const std::size_t root = find(0);
  for (std::size_t i = 1; i < positions.size(); ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

std::vector<Vec2> placeNodesGrid(const ScenarioConfig& config, Rng& rng) {
  const std::size_t n = config.nodeCount;
  MESH_REQUIRE(n > 0);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  const double cellW = config.areaWidthM / static_cast<double>(cols);
  const double cellH = config.areaHeightM / static_cast<double>(rows);
  // One node per cell of the row-major prefix 0..n-1 (a connected region
  // of the grid). The node -> cell map is shuffled so node ids carry no
  // spatial information: id-striped channel plans and group picks then
  // sample space uniformly, like the rejection path they replace.
  std::vector<std::size_t> cells(n);
  std::iota(cells.begin(), cells.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
    std::swap(cells[i], cells[j]);
  }
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cell = cells[i];
    const double cx = (static_cast<double>(cell % cols) + 0.5) * cellW;
    const double cy = (static_cast<double>(cell / cols) + 0.5) * cellH;
    // Jitter keeps each node inside the central half of its cell, so two
    // nodes in adjacent occupied cells sit at most
    // hypot(1.5·cell, 0.5·cell) apart — ~224 m at the paper's density,
    // inside the 250 m disk range. Connectivity needs no rejection loop.
    positions.push_back(Vec2{cx + rng.uniform(-cellW / 4.0, cellW / 4.0),
                             cy + rng.uniform(-cellH / 4.0, cellH / 4.0)});
  }
  return positions;
}

std::vector<Vec2> placePositions(const ScenarioConfig& config, Rng& rng) {
  if (config.placement == Placement::Grid) return placeNodesGrid(config, rng);
  const auto placeUniform = [&] {
    std::vector<Vec2> positions;
    positions.reserve(config.nodeCount);
    for (std::size_t i = 0; i < config.nodeCount; ++i) {
      positions.push_back(Vec2{rng.uniform(0.0, config.areaWidthM),
                               rng.uniform(0.0, config.areaHeightM)});
    }
    return positions;
  };
  std::vector<Vec2> positions = placeUniform();
  if (config.ensureConnected) {
    // 250 m is the nominal (fading-free) reception range.
    int attempts = 0;
    while (!diskGraphConnected(positions, 250.0)) {
      positions = placeUniform();
      MESH_REQUIRE(++attempts < 1000);
    }
  }
  return positions;
}

void applyRecovery(RunResults& results, const fault::RecoveryReport& report) {
  results.faultsApplied = report.faultsApplied;
  results.faultsCleared = report.faultsCleared;
  results.faultWindowS = report.faultWindowS;
  results.inWindowPdr = report.inWindowPdr;
  results.outWindowPdr = report.outWindowPdr;
  results.overheadInflation = report.overheadInflation;
  results.meanTimeToRepairS = report.meanTimeToRepairS;
  results.repairsObserved = report.repairsObserved;
  results.repairsUnresolved = report.repairsUnresolved;
}

// Folds per-domain recovery reports into one run-level report. Counts sum;
// ratio metrics are weighted means over the windows they were measured in
// (fault-window seconds for in-window PDR and overhead inflation, the
// remaining horizon for out-of-window PDR, resolved repairs for the mean
// time-to-repair). A single report passes through unchanged.
fault::RecoveryReport mergeRecoveryReports(
    const std::vector<fault::RecoveryReport>& reports, SimTime horizon) {
  if (reports.size() == 1) return reports.front();
  fault::RecoveryReport merged;
  const double horizonS = horizon.toSeconds();
  double inWeight = 0.0, outWeight = 0.0, repairWeight = 0.0;
  for (const fault::RecoveryReport& r : reports) {
    merged.faultsApplied += r.faultsApplied;
    merged.faultsCleared += r.faultsCleared;
    merged.faultWindowS += r.faultWindowS;
    merged.repairsObserved += r.repairsObserved;
    merged.repairsUnresolved += r.repairsUnresolved;
    merged.inWindowPdr += r.inWindowPdr * r.faultWindowS;
    merged.overheadInflation += r.overheadInflation * r.faultWindowS;
    merged.inWindowControlBps += r.inWindowControlBps * r.faultWindowS;
    inWeight += r.faultWindowS;
    const double outS = horizonS > r.faultWindowS ? horizonS - r.faultWindowS : 0.0;
    merged.outWindowPdr += r.outWindowPdr * outS;
    merged.outWindowControlBps += r.outWindowControlBps * outS;
    outWeight += outS;
    merged.meanTimeToRepairS +=
        r.meanTimeToRepairS * static_cast<double>(r.repairsObserved);
    repairWeight += static_cast<double>(r.repairsObserved);
  }
  if (inWeight > 0.0) {
    merged.inWindowPdr /= inWeight;
    merged.overheadInflation /= inWeight;
    merged.inWindowControlBps /= inWeight;
  }
  if (outWeight > 0.0) {
    merged.outWindowPdr /= outWeight;
    merged.outWindowControlBps /= outWeight;
  }
  if (repairWeight > 0.0) merged.meanTimeToRepairS /= repairWeight;
  return merged;
}


}  // namespace

void Simulation::build() {
  // CbrSource cannot run an empty window; refusing the world here turns a
  // bad cell into a failed run instead of a process abort.
  const bool hasSource = std::any_of(
      config_.groups.begin(), config_.groups.end(),
      [](const GroupSpec& spec) { return !spec.sources.empty(); });
  if (hasSource && config_.traffic.stop <= config_.traffic.start) {
    throw std::invalid_argument(
        "traffic window is empty: stop " +
        std::to_string(config_.traffic.stop.toSeconds()) +
        " s is not after start " +
        std::to_string(config_.traffic.start.toSeconds()) + " s");
  }

  Rng rng{config_.seed};
  // Orthogonal collision domains need static geometry: the plan is decided
  // once from positions, and a custom or mobile link model would move
  // state across domains mid-run.
  // makeChannelPlan (or the adopted plan) bounds `channels` to 1..255.
  const bool staticGeometry = snapshotEligible(config_);
  MESH_REQUIRE(config_.channels == 1 || staticGeometry);
  const std::size_t domains = config_.channels;

  if (config_.protocol.metric) {
    metric_ = metrics::makeMetric(*config_.protocol.metric,
                                  config_.traffic.payloadBytes);
  }

  std::unique_ptr<phy::RandomWaypointMobility> mobility;
  if (adopted_ != nullptr) {
    // The placement draws come from rng.fork("placement"), a const fork:
    // skipping them cannot perturb any other stream.
    MESH_REQUIRE(adopted_->positions.size() == config_.nodeCount);
    MESH_REQUIRE(adopted_->plan.channels == domains);
    positions_ = adopted_->positions;
    plan_ = adopted_->plan;
  } else if (staticGeometry) {
    Rng placeRng = rng.fork("placement");
    positions_ = placePositions(config_, placeRng);
    // 250 m: the nominal reception range — the radius inside which two
    // same-channel nodes contend.
    plan_ = channelplan::makeChannelPlan(config_.channelAssign, domains,
                                         positions_, 250.0);
  } else {
    if (config_.linkModelFactory) {
      positions_ = config_.fixedPositions;
      if (config_.nodeCount == 0 && !positions_.empty()) {
        config_.nodeCount = positions_.size();
      }
    } else {
      phy::RandomWaypointMobility::Params params;
      params.areaWidthM = config_.areaWidthM;
      params.areaHeightM = config_.areaHeightM;
      params.minSpeedMps = config_.mobilityMaxSpeedMps / 2.0;
      params.maxSpeedMps = config_.mobilityMaxSpeedMps;
      params.maxPause = SimTime::seconds(std::int64_t{5});
      params.horizon = config_.duration + SimTime::seconds(std::int64_t{10});
      mobility = std::make_unique<phy::RandomWaypointMobility>(
          config_.nodeCount, params, rng.fork("mobility"));
      positions_ = mobility->initialPositions();
    }
    // One domain holding every node, sized by the node count: factory
    // worlds may carry no positions at all.
    plan_.assignment.assign(config_.nodeCount, 0);
    plan_.domainSizes.assign(1, static_cast<std::uint32_t>(config_.nodeCount));
  }

  // Rate subsystem: build the shared table when anything rate-aware is
  // configured. The basic rate tracks the PHY bitrate so code-0 and
  // basic-code airtimes agree.
  if (config_.rateControl != rate::ControlKind::Fixed ||
      config_.rateSet != rate::RateSetKind::Basic) {
    rateTable_ = std::make_unique<rate::RateTable>(rate::RateTable::forSet(
        config_.rateSet, config_.node.phy.bitRateBps));
  }

  // Custom and mobile models exist only in one-domain worlds (REQUIREd
  // above), so they are built once, against domain 0's clock. Geometric
  // models index the full position vector by global node id; a Channel
  // only consults radios attached to it, so carrier sense, NAV, busy power
  // and reachability are per-domain state for free.
  const auto makeLinkModel =
      [&](sim::Simulator& sim) -> std::unique_ptr<phy::LinkModel> {
    if (config_.linkModelFactory) {
      Rng modelRng = rng.fork("linkmodel");
      return config_.linkModelFactory(sim, modelRng);
    }
    std::unique_ptr<phy::FadingModel> fading;
    if (config_.rayleighFading) {
      fading = std::make_unique<phy::RayleighFading>();
    } else {
      fading = std::make_unique<phy::NoFading>();
    }
    if (mobility != nullptr) {
      return std::make_unique<phy::MobileGeometricLinkModel>(
          sim, config_.node.phy, std::move(mobility),
          std::make_unique<phy::TwoRayGroundModel>(), std::move(fading));
    }
    return std::make_unique<phy::GeometricLinkModel>(
        config_.node.phy, positions_,
        std::make_unique<phy::TwoRayGroundModel>(), std::move(fading));
  };

  for (std::size_t d = 0; d < domains; ++d) {
    domainTraces_.emplace_back();  // stays null unless tracing
    if (!config_.tracePath.empty()) {
      domainTraces_[d] = std::make_unique<trace::TraceCollector>(
          config_.tracePath + ".spill." + std::to_string(d));
      // Channel tags appear only with more than one domain, so one-domain
      // records carry no channel field.
      if (domains > 1) {
        domainTraces_[d]->setChannelTag(static_cast<std::uint8_t>(d + 1));
      }
    }
    domainSims_.push_back(std::make_unique<sim::Simulator>());
    sim::Simulator& sim = *domainSims_[d];
    // A fresh PacketPool scoped to this simulator's run loop (DESIGN §12):
    // the thread's active pool for exactly the events it executes, so
    // concurrent domain simulators never share one. Save/restore the
    // previous active pool so nested run() scopes (a test driving one
    // simulation from inside another's event) stay balanced.
    net::PacketPool* pool =
        pools_.emplace_back(std::make_unique<net::PacketPool>()).get();
    auto prev = std::make_shared<net::PacketPool*>(nullptr);
    sim.setRunScope(
        [pool, prev] { *prev = net::PacketPool::setCurrent(pool); },
        [prev] { net::PacketPool::setCurrent(*prev); });
    domainRegistries_.push_back(std::make_unique<trace::CounterRegistry>());
    // fork("channel", 0) == fork("channel"): domain 0 draws the stream the
    // paper's single shared channel always drew.
    channels_.push_back(std::make_unique<phy::Channel>(
        sim, makeLinkModel(sim), rng.fork("channel", d)));
    channels_[d]->setTrace(domainTraces_[d].get());
    if (rateTable_ != nullptr) channels_[d]->setRateTable(rateTable_.get());
  }
  if (config_.mobilityMaxSpeedMps > 0.0) {
    // Fading headroom gives the cache ~3.4x distance slack over the CS
    // range (~1.3 km); refresh every 2 s so even 30 m/s nodes cannot
    // outrun it.
    channels_[0]->enableReachabilityRefresh(SimTime::seconds(std::int64_t{2}));
  }

  MeshNodeConfig nodeConfig = config_.node;
  nodeConfig.probeRateScale = config_.protocol.probeRateScale;
  nodeConfig.treeRouting = config_.protocol.routing == Routing::Tree;
  nodeConfig.adaptiveProbing.enabled = config_.protocol.adaptiveProbing;
  nodeConfig.rateControl = config_.rateControl;
  nodeConfig.rateTable = rateTable_.get();
  nodes_.reserve(config_.nodeCount);
  if (domains > 1) registry_.hintSlotsPerSeries(config_.nodeCount + 1);
  for (auto& domainRegistry : domainRegistries_) {
    domainRegistry->hintSlotsPerSeries(config_.nodeCount / plan_.channels + 2);
  }
  for (std::size_t i = 0; i < config_.nodeCount; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    const std::size_t d = plan_.channelOf(id);
    nodes_.push_back(std::make_unique<MeshNode>(
        *domainSims_[d], *channels_[d], id, nodeConfig, metric_.get(),
        rng.fork("node", i), domainTraces_[d].get()));
    // Nodes register into their domain registry only — what per-channel
    // results and the recovery analyzers read. With several domains the
    // run-level taxonomy in registry_ absorbs every domain registry after
    // the loop: same shared slots, one bulk map walk instead of a second
    // per-node registration. One domain's registry is the run's.
    nodes_.back()->registerCounters(*domainRegistries_[d]);
  }

  if (domains > 1) {
    for (const auto& domainRegistry : domainRegistries_) {
      registry_.absorb(*domainRegistry);
    }
  }

  for (const GroupSpec& spec : config_.groups) {
    for (const net::NodeId member : spec.members) {
      nodes_.at(member)->joinGroup(spec.group);
    }
    for (const net::NodeId source : spec.sources) {
      app::CbrConfig cbr = config_.traffic;
      cbr.group = spec.group;
      nodes_.at(source)->addCbrSource(cbr);
    }
  }

  for (auto& node : nodes_) node->start();

  // Cross-domain gateways: the roster is deterministic (RNG-free given the
  // plan and positions), then the relay wires one port Radio + MAC per
  // foreign domain onto each gateway and the node's outbound broadcasts
  // are tapped for staging. gateways == 0 builds none of this — the
  // multi-channel path stays byte-identical to the gateway-less simulator.
  if (domains > 1 && (config_.gateways > 0 || !config_.gatewayNodes.empty())) {
    if (adopted_ != nullptr) {
      gatewaySet_ = adopted_->gatewaySet;
    } else {
      gateway::GatewaySelect select = config_.gatewaySelect;
      if (!config_.gatewayNodes.empty()) {
        select = gateway::GatewaySelect::Explicit;
      }
      // 250 m: the same nominal reception range the channel plan scores
      // boundary candidates against.
      gatewaySet_ = gateway::makeGatewaySet(select, config_.gateways,
                                            config_.gatewayNodes, plan_,
                                            positions_, 250.0);
    }
    std::vector<gateway::GatewayRelay::DomainContext> contexts;
    contexts.reserve(domains);
    for (std::size_t d = 0; d < domains; ++d) {
      contexts.push_back(gateway::GatewayRelay::DomainContext{
          domainSims_[d].get(), channels_[d].get(), pools_[d].get(),
          domainTraces_[d].get()});
    }
    relay_ = std::make_unique<gateway::GatewayRelay>(std::move(contexts));
    for (const net::NodeId g : gatewaySet_.nodes) {
      MESH_REQUIRE(static_cast<std::size_t>(g) < nodes_.size());
      const std::size_t idx = relay_->addGateway(
          g, plan_.channelOf(g), config_.node.phy, config_.node.mac,
          rng.fork("gwport", g),
          [this, g](const net::PacketPtr& packet, net::NodeId from) {
            nodes_.at(g)->injectFromGateway(packet, from);
          });
      nodes_.at(g)->setGatewayTap([this, idx](const net::PacketPtr& packet) {
        relay_->captureOutbound(idx, packet);
      });
    }
    // Port radios transmit on their channel like any node radio, so their
    // counters join both registries — otherwise the per-channel frame
    // counts disagree with the channel-tagged trace records.
    const bool rateAware = config_.rateControl != rate::ControlKind::Fixed;
    for (std::size_t d = 0; d < domains; ++d) {
      relay_->registerPortCounters(d, registry_, rateAware);
      relay_->registerPortCounters(d, *domainRegistries_[d], rateAware);
    }
  }

  // Faults: churn is generated once for the whole world from
  // fork("faults"), then the merged schedule is scoped per domain so each injector only ever
  // touches its own domain's simulator, channel and nodes (the invariant
  // the parallel scheduler relies on).
  fault::FaultSchedule schedule = config_.faults;
  if (config_.churn) {
    std::vector<net::NodeId> eligible;
    if (!config_.churnVictims.empty()) {
      // Explicit victim roster (the on-route churn figure crashes actual
      // forwarding-group members discovered in a pilot run).
      eligible = config_.churnVictims;
    } else {
      // Default victims: every node that is neither a source nor a member.
      std::vector<bool> excluded(config_.nodeCount, false);
      for (const GroupSpec& spec : config_.groups) {
        for (const net::NodeId s : spec.sources) excluded.at(s) = true;
        for (const net::NodeId m : spec.members) excluded.at(m) = true;
      }
      for (std::size_t i = 0; i < config_.nodeCount; ++i) {
        if (!excluded[i]) eligible.push_back(static_cast<net::NodeId>(i));
      }
    }
    const fault::FaultSchedule generated = fault::FaultSchedule::generate(
        *config_.churn, config_.duration, eligible, rng.fork("faults"));
    for (const fault::FaultEvent& event : generated.events()) {
      schedule.add(event);
    }
  }
  if (!schedule.empty()) {
    // A gateway owns a radio in every domain, so radio-level faults
    // (crash, blackout, loss ramp, interference) scope to each domain
    // where the victim — and for link faults the peer too — has a radio:
    // crashing a gateway takes down its home stack and every port.
    // Node-level faults (probe blackhole, MAC queue drop) act on the
    // node's single protocol stack and stay home-domain-only, which also
    // keeps their hooks inside the home domain's worker thread. Only the
    // first scoped copy of a fault keeps its traced flag, so the merged
    // trace carries each fault timeline once.
    std::vector<bool> isGateway(config_.nodeCount, false);
    for (const net::NodeId g : gatewaySet_.nodes) isGateway.at(g) = true;
    const auto hasRadioIn = [&](net::NodeId node, std::size_t d) {
      return plan_.channelOf(node) == d || isGateway.at(node);
    };
    domainInjectors_.resize(domains);
    domainRecovery_.resize(domains);
    std::vector<bool> tracedCopyEmitted(schedule.size(), false);
    for (std::size_t d = 0; d < domains; ++d) {
      std::vector<fault::FaultEvent> scoped;
      for (std::size_t e = 0; e < schedule.events().size(); ++e) {
        const fault::FaultEvent& event = schedule.events()[e];
        const bool nodeLevel =
            event.kind == trace::FaultKind::ProbeBlackhole ||
            event.kind == trace::FaultKind::MacQueueDrop;
        if (nodeLevel) {
          if (plan_.channelOf(event.node) != d) continue;
        } else {
          if (!hasRadioIn(event.node, d)) continue;
          // A link fault needs both endpoints in this domain; a pair with
          // no shared domain names a link that cannot exist, so that copy
          // is dropped.
          if (event.peer != net::kInvalidNode &&
              !hasRadioIn(event.peer, d)) {
            continue;
          }
        }
        fault::FaultEvent copy = event;
        copy.traced = event.traced && !tracedCopyEmitted[e];
        tracedCopyEmitted[e] = true;
        scoped.push_back(copy);
      }
      if (scoped.empty()) continue;
      domainInjectors_[d] = std::make_unique<fault::FaultInjector>(
          *domainSims_[d], *channels_[d],
          fault::FaultSchedule::fromEvents(std::move(scoped)));
      domainInjectors_[d]->setTrace(domainTraces_[d].get());
      // Node-level victims are always same-domain (see scoping above), so
      // these hooks stay inside this domain's worker thread.
      domainInjectors_[d]->setBlackholeHook([this](net::NodeId node,
                                                   bool active) {
        nodes_.at(node)->setProbeBlackhole(active);
      });
      domainInjectors_[d]->setQueueDropHook([this](net::NodeId node,
                                                   bool active) {
        nodes_.at(node)->setQueueDropFault(active);
      });
      domainInjectors_[d]->arm();

      // Mean fan-out per originated data packet, the factor that turns the
      // analyzer's originated-counter deltas into expected deliveries. A
      // source only reaches members sharing its channel.
      double fanout = 0.0;
      std::size_t sources = 0;
      for (const GroupSpec& spec : config_.groups) {
        for (const net::NodeId source : spec.sources) {
          if (plan_.channelOf(source) != d) continue;
          std::uint64_t f = 0;
          for (const net::NodeId member : spec.members) {
            if (member != source && plan_.channelOf(member) == d) ++f;
          }
          fanout += static_cast<double>(f);
          ++sources;
        }
      }
      if (sources > 0) fanout /= static_cast<double>(sources);
      domainRecovery_[d] = std::make_unique<fault::RecoveryAnalyzer>(
          *domainSims_[d], *domainRegistries_[d],
          domainInjectors_[d]->schedule(), config_.duration, fanout);
      domainRecovery_[d]->arm();
    }
  }

  // Snapshot-eligible worlds force the reachability build at construction
  // (DESIGN §14). Builds draw no RNG and static positions make t=0 rows
  // identical to the lazy first-transmission build, so results cannot
  // change — and construction cost lands in setup_seconds whether the
  // snapshot cache is on or off, keeping the amortization A/B honest.
  // Adopting runs splice the frozen rows in instead of rebuilding. Runs
  // after gateway wiring so the rows cover the relay's port radios, which
  // attach after each domain's own nodes.
  if (!staticGeometry) return;
  for (std::size_t d = 0; d < domains; ++d) {
    if (adopted_ != nullptr) {
      channels_[d]->adoptReachability(adopted_->reach.at(d));
    } else {
      channels_[d]->rebuildReachabilityNow();
    }
  }
}

TopologySnapshotPtr Simulation::captureSnapshot() {
  if (!snapshotEligible(config_)) return nullptr;
  // An adopting run has nothing new to freeze — the cache already holds
  // this world.
  MESH_REQUIRE(adopted_ == nullptr);
  auto snapshot = std::make_shared<TopologySnapshot>();
  snapshot->positions = positions_;
  snapshot->plan = plan_;
  snapshot->gatewaySet = gatewaySet_;
  snapshot->reach.reserve(channels_.size());
  for (auto& channel : channels_) {
    snapshot->reach.push_back(channel->freezeAndShare());
  }
  return snapshot;
}

RunResults Simulation::run() {
  std::vector<sim::Simulator*> domains;
  domains.reserve(domainSims_.size());
  for (const auto& domain : domainSims_) domains.push_back(domain.get());
  channelplan::DomainScheduler scheduler{std::move(domains),
                                         config_.domainWorkers};
  // A short drain window lets in-flight frames land before accounting.
  const SimTime horizon = config_.duration + SimTime::seconds(std::int64_t{1});
  if (relay_ != nullptr) {
    // Switch slots: one epoch barrier every switchSlot, plus a final one
    // at the horizon so the last partial slot still drains. Barriers run
    // alone on the caller's thread with every domain clock stopped exactly
    // at the barrier time — the property that makes the handoff order
    // independent of the worker count.
    MESH_REQUIRE(!config_.switchSlot.isZero());
    SimTime at = config_.switchSlot;
    for (; at <= horizon; at = at + config_.switchSlot) {
      scheduler.addBarrier(at, [this] { relay_->drainAtBarrier(); });
    }
    if (at - config_.switchSlot < horizon) {
      scheduler.addBarrier(horizon, [this] { relay_->drainAtBarrier(); });
    }
  }
  scheduler.run(horizon);

  RunResults results;
  for (const auto& domain : domainSims_) {
    results.eventsExecuted += domain->eventsExecuted();
  }
  const double activeS =
      (config_.traffic.stop - config_.traffic.start).toSeconds();
  std::uint64_t payloadBits = 0;
  for (const GroupSpec& spec : config_.groups) {
    for (const net::NodeId source : spec.sources) {
      const app::CbrSource* cbr = nodes_.at(source)->cbr();
      MESH_ASSERT(cbr != nullptr);
      results.packetsSent += cbr->packetsSent();
      // Every member except the source itself (a source may be a member)
      // should receive each packet.
      std::uint64_t fanout = 0;
      for (const net::NodeId member : spec.members) {
        if (member != source) ++fanout;
      }
      results.expectedDeliveries += cbr->packetsSent() * fanout;
    }
    for (const net::NodeId member : spec.members) {
      const auto& sink = nodes_.at(member)->sink();
      results.packetsDelivered += sink.packetsReceived();
      payloadBits += sink.payloadBytesReceived() * 8;
    }
  }

  // Byte/frame totals come from the counter registry — the same slots every
  // protocol variant registers under one taxonomy, so these aggregates and
  // a `meshtrace` replay read identical numbers.
  results.probeBytesReceived = counters().value("app.rx_bytes.probe");
  results.dataBytesReceived = counters().value("app.rx_bytes.data");
  results.controlBytesReceived = counters().value("app.rx_bytes.control");
  results.macBroadcastsSent = counters().value("mac.broadcast_sent");
  results.radioFramesCorrupted = counters().value("phy.frames_corrupted");

  OnlineStats delay;
  for (const auto& node : nodes_) delay.merge(node->sink().delayStats());

  results.pdr = results.expectedDeliveries > 0
                    ? static_cast<double>(results.packetsDelivered) /
                          static_cast<double>(results.expectedDeliveries)
                    : 0.0;
  results.throughputBps =
      activeS > 0.0 ? static_cast<double>(payloadBits) / activeS : 0.0;
  results.meanDelayS = delay.mean();
  results.probeOverheadPct =
      results.dataBytesReceived > 0
          ? 100.0 * static_cast<double>(results.probeBytesReceived) /
                static_cast<double>(results.dataBytesReceived)
          : 0.0;

  if (plan_.channels > 1) {
    for (std::size_t d = 0; d < plan_.channels; ++d) {
      results.channelFrames.push_back(
          domainRegistries_[d]->value("phy.frames_sent"));
      results.channelDelivered.push_back(
          domainRegistries_[d]->value("app.packets_delivered"));
    }
  }

  if (relay_ != nullptr) {
    results.gatewayCount = relay_->gatewayCount();
    results.handoffFrames = relay_->totalInjected();
    results.gatewayStats = relay_->counters();
  }

  std::vector<fault::RecoveryReport> reports;
  for (const auto& recovery : domainRecovery_) {
    if (recovery != nullptr) reports.push_back(recovery->report());
  }
  if (!reports.empty()) {
    applyRecovery(results, mergeRecoveryReports(reports, config_.duration));
  }

  if (!config_.tracePath.empty()) {
    std::vector<trace::TraceCollector*> parts;
    parts.reserve(domainTraces_.size());
    for (const auto& collector : domainTraces_) parts.push_back(collector.get());
    char meta[256];
    std::snprintf(meta, sizeof(meta),
                  "{\"seed\":%llu,\"protocol\":\"%s\",\"nodes\":%zu,"
                  "\"active_s\":%.17g}",
                  static_cast<unsigned long long>(config_.seed),
                  config_.protocol.name().c_str(), nodes_.size(), activeS);
    if (!trace::TraceCollector::exportMergedJsonl(
            config_.tracePath, meta, counters().snapshot(), parts)) {
      throw std::runtime_error("trace export failed: cannot write " +
                               config_.tracePath);
    }
  }
  return results;
}

std::unordered_map<net::LinkKey, std::uint64_t, net::LinkKeyHash>
Simulation::dataEdgeCounts() const {
  std::unordered_map<net::LinkKey, std::uint64_t, net::LinkKeyHash> edges;
  for (const auto& node : nodes_) {
    for (const auto& [edge, count] : node->odmrp().dataEdgeCounts()) {
      edges[edge] += count;
    }
  }
  return edges;
}

}  // namespace mesh::harness
