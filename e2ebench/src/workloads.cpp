#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {
namespace {

using mesh::Rng;
using mesh::SimTime;
using mesh::harness::ProtocolSpec;
using mesh::harness::ScenarioConfig;
using mesh::metrics::MetricKind;

constexpr double kChurnPerMinute = 3.0;  // crashes, and bursts, per minute

// First topology seed of a workload seed. All four workloads use the same
// derivation, so churn-50 runs fig2-50's topologies and span2000-3ch-gw
// runs dense2000-1ch's.
std::uint64_t topologyBase(std::uint64_t seed) {
  return 1 + (Rng{seed}.fork("e2e-topologies").nextU64() >> 24);
}

// §4.1: 50 nodes in 1 km², Rayleigh fading, 2 groups x 10 members x 1
// source, CBR 512 B x 20 pkt/s from 30 s to the end of the run.
ScenarioConfig paperCell(std::uint64_t topologySeed, SimTime duration) {
  ScenarioConfig config = mesh::harness::paperSimulationScenario();
  config.seed = topologySeed;
  config.duration = duration;
  config.traffic.stop = duration;
  Rng groupRng = Rng{topologySeed}.fork("e2e-groups");
  config.groups = mesh::harness::makeRandomGroups(config.nodeCount, 2, 10, 1,
                                                  groupRng);
  return config;
}

// 2000 nodes at 3x the paper's density (the scaled scenario's side shrunk
// by sqrt(3)), three groups of 10 members and one source drawn over all
// nodes, traffic from 2 s to the end of the run.
ScenarioConfig denseCell(std::uint64_t topologySeed, SimTime duration) {
  ScenarioConfig config = mesh::harness::scaledSimulationScenario(2000);
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = topologySeed;
  config.duration = duration;
  config.traffic.start = SimTime::seconds(std::int64_t{2});
  config.traffic.stop = duration;
  Rng groupRng = Rng{topologySeed}.fork("e2e-groups");
  config.groups = mesh::harness::makeRandomGroups(config.nodeCount, 3, 10, 1,
                                                  groupRng);
  return config;
}

Workload base(const std::string& name, std::uint64_t seed,
              std::size_t topologies, SimTime duration, std::size_t jobs,
              std::size_t nproc) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.options.topologies = topologies;
  w.options.duration = duration;
  w.options.baseSeed = topologyBase(seed);
  w.options.verbose = false;
  w.options.jobs = std::max<std::size_t>(1, std::min(jobs, nproc));
  w.options.topologyCache = true;
  return w;
}

}  // namespace

std::size_t Workload::threads() const {
  std::size_t workers = 1;
  for (const ScenarioConfig& config : scenarios) {
    workers = std::max(workers, config.channels > 1 ? config.domainWorkers
                                                    : std::size_t{1});
  }
  return options.jobs * workers;
}

ScenarioConfig Workload::scenarioFor(std::uint64_t topologySeed) const {
  const std::uint64_t index = topologySeed - options.baseSeed;
  if (topologySeed < options.baseSeed || index >= scenarios.size()) {
    throw std::out_of_range("no generated scenario for topology seed " +
                            std::to_string(topologySeed));
  }
  return scenarios[index];
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "fig2-50", "churn-50", "dense2000-1ch", "span2000-3ch-gw"};
  return names;
}

mesh::fault::FaultSchedule makeChurnTimeline(const ScenarioConfig& scenario,
                                             double perMinute, SimTime warmup,
                                             Rng rng) {
  std::vector<bool> endpoint(scenario.nodeCount, false);
  for (const auto& group : scenario.groups) {
    for (const auto node : group.sources) endpoint[node] = true;
    for (const auto node : group.members) endpoint[node] = true;
  }
  std::vector<mesh::net::NodeId> victims;
  for (std::size_t i = 0; i < scenario.nodeCount; ++i) {
    if (!endpoint[i]) victims.push_back(static_cast<mesh::net::NodeId>(i));
  }

  std::vector<mesh::fault::FaultEvent> events;
  const double meanGapS = 60.0 / perMinute;
  const auto arrivals = [&](mesh::trace::FaultKind kind, double meanLengthS,
                            Rng stream) {
    double at = warmup.toSeconds();
    while (true) {
      at += stream.exponential(meanGapS);
      if (at >= scenario.duration.toSeconds()) break;
      mesh::fault::FaultEvent event;
      event.kind = kind;
      event.node = victims[stream.uniformInt(std::uint64_t{victims.size()})];
      event.start = SimTime::seconds(at);
      // Zero would mean permanent; every generated fault clears.
      event.duration = std::max(SimTime::seconds(stream.exponential(meanLengthS)),
                                SimTime::milliseconds(1));
      event.powerDbm = -55.0;
      events.push_back(event);
    }
  };
  arrivals(mesh::trace::FaultKind::NodeCrash, 5.0, rng.fork("crashes"));
  arrivals(mesh::trace::FaultKind::InterferenceBurst, 0.5, rng.fork("bursts"));
  return mesh::fault::FaultSchedule::fromEvents(std::move(events));
}

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t nproc) {
  nproc = std::max<std::size_t>(1, nproc);
  // 50-node cells run 100 s (70 s of traffic) rather than the paper's
  // 400 s: single topologies differ in work by ~13% (IQR), so a round has
  // to average several of them to be steady across seeds.
  const SimTime cellDuration = SimTime::seconds(std::int64_t{100});
  Workload w;
  if (name == "fig2-50") {
    w = base(name, seed, 10, cellDuration, 4, nproc);
    w.protocols = mesh::harness::figure2Protocols();
    w.expectSppOverOdmrp = true;
    for (std::size_t t = 0; t < w.options.topologies; ++t) {
      w.scenarios.push_back(paperCell(w.options.baseSeed + t, cellDuration));
    }
  } else if (name == "churn-50") {
    w = base(name, seed, 16, cellDuration, 4, nproc);
    w.protocols = {ProtocolSpec::with(MetricKind::Spp)};
    for (std::size_t t = 0; t < w.options.topologies; ++t) {
      ScenarioConfig config = paperCell(w.options.baseSeed + t, cellDuration);
      config.faults = makeChurnTimeline(
          config, kChurnPerMinute, config.traffic.start,
          Rng{config.seed}.fork("e2e-churn"));
      w.scenarios.push_back(std::move(config));
    }
  } else if (name == "dense2000-1ch") {
    const SimTime duration = SimTime::seconds(std::int64_t{5});
    w = base(name, seed, 1, duration, 2, nproc);
    w.protocols = {ProtocolSpec::original(),
                   ProtocolSpec::with(MetricKind::Spp)};
    w.scenarios.push_back(denseCell(w.options.baseSeed, duration));
  } else if (name == "span2000-3ch-gw") {
    // Four topologies: one 2000-node gateway run's work varies ~±10% with
    // where its groups fall, so a round averages several.
    const SimTime duration = SimTime::seconds(std::int64_t{10});
    w = base(name, seed, 4, duration, 1, nproc);
    w.protocols = {ProtocolSpec::with(MetricKind::Spp)};
    w.expectHandoff = true;
    for (std::size_t t = 0; t < w.options.topologies; ++t) {
      ScenarioConfig config = denseCell(w.options.baseSeed + t, duration);
      config.channels = 3;
      config.domainWorkers = std::min<std::size_t>(3, nproc);
      config.gateways = 6;
      config.gatewaySelect = mesh::gateway::GatewaySelect::Boundary;
      w.scenarios.push_back(std::move(config));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace e2e
