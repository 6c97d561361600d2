// Multi-channel collision domains (robustness tier).
//
// Every world is a channel plan of >= 1 collision domains. Pinned here:
//  * one-channel worlds (static, churn, mobility, custom link models)
//    reproduce golden trace hashes and counters recorded from the
//    single-simulator builder the plan path replaced;
//  * a channels>1 run is byte-identical no matter how many domain worker
//    threads drive it (1 = the sequential reference order) and no matter
//    the sweep's --jobs count.
// Plus the plan/scheduler unit contracts and the end-to-end per-channel
// counter cross-check (`meshtrace verify` machinery).
//
// Durations are short: the point is determinism, not protocol performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/channelplan/domain_scheduler.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/phy/static_link_model.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/testbed/floorplan.hpp"
#include "mesh/testbed/loss_link_model.hpp"
#include "mesh/trace/replay.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// ChannelPlan

TEST(ChannelPlan, StaticStripesByNodeId) {
  const std::vector<Vec2> positions(10, Vec2{0.0, 0.0});
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, 3, positions, 250.0);
  ASSERT_EQ(plan.assignment.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.channelOf(static_cast<net::NodeId>(i)), i % 3);
  }
  EXPECT_EQ(plan.domainSizes, (std::vector<std::uint32_t>{4, 3, 3}));
  EXPECT_EQ(plan.domainNodes(1), (std::vector<net::NodeId>{1, 4, 7}));
}

TEST(ChannelPlan, LeastCongestedBalancesACluster) {
  // Ten nodes within one contention disk: the greedy pass must deal them
  // round-robin-like across the channels instead of stacking one.
  std::vector<Vec2> positions;
  for (int i = 0; i < 10; ++i) {
    positions.push_back(Vec2{static_cast<double>(i) * 10.0, 0.0});
  }
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 2, positions, 250.0);
  EXPECT_EQ(plan.domainSizes[0], 5u);
  EXPECT_EQ(plan.domainSizes[1], 5u);
  // Every node sees every other, so the worst same-channel degree is the
  // domain population minus one.
  EXPECT_EQ(plan.maxSameChannelNeighbors, 4u);
}

TEST(ChannelPlan, LeastCongestedIsAPureFunctionOfGeometry) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(200);
  config.seed = 7;
  Rng rng{config.seed};
  // Positions via a throwaway simulation-free draw: the grid generator is
  // exercised end to end by the harness tests below; here any spread-out
  // geometry will do.
  std::vector<Vec2> positions;
  for (std::size_t i = 0; i < 200; ++i) {
    positions.push_back(Vec2{rng.uniform(0.0, config.areaWidthM),
                             rng.uniform(0.0, config.areaHeightM)});
  }
  const channelplan::ChannelPlan a = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 3, positions, 250.0);
  const channelplan::ChannelPlan b = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 3, positions, 250.0);
  EXPECT_EQ(a.assignment, b.assignment);
  const std::uint32_t total =
      std::accumulate(a.domainSizes.begin(), a.domainSizes.end(), 0u);
  EXPECT_EQ(total, 200u);
}

TEST(ChannelPlan, StrategyNamesRoundTrip) {
  channelplan::AssignStrategy strategy;
  EXPECT_TRUE(channelplan::assignStrategyFromString("static", strategy));
  EXPECT_EQ(strategy, channelplan::AssignStrategy::Static);
  EXPECT_TRUE(channelplan::assignStrategyFromString("least-congested", strategy));
  EXPECT_EQ(strategy, channelplan::AssignStrategy::LeastCongested);
  EXPECT_TRUE(channelplan::assignStrategyFromString("least_congested", strategy));
  EXPECT_FALSE(channelplan::assignStrategyFromString("bogus", strategy));
  EXPECT_STREQ(channelplan::toString(channelplan::AssignStrategy::Static),
               "static");
}

// ---------------------------------------------------------------------------
// DomainScheduler

TEST(DomainScheduler, BarriersSyncAllDomains) {
  sim::Simulator a, b;
  std::vector<int> order;
  a.schedule(1_s, [&] { order.push_back(1); });
  b.schedule(2_s, [&] { order.push_back(2); });
  a.schedule(3_s, [&] { order.push_back(3); });

  channelplan::DomainScheduler scheduler{{&a, &b}, 1};
  scheduler.addBarrier(2_s + 500_ms, [&] {
    // Both clocks sit exactly at the barrier instant; the 3 s event has
    // not run yet.
    EXPECT_EQ(a.now(), 2_s + 500_ms);
    EXPECT_EQ(b.now(), 2_s + 500_ms);
    order.push_back(99);
  });
  const std::uint64_t executed = scheduler.run(4_s);
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99, 3}));
  EXPECT_EQ(scheduler.epochsRun(), 2u);
  EXPECT_EQ(a.now(), 4_s);
  EXPECT_EQ(b.now(), 4_s);
}

TEST(DomainScheduler, WorkerCountDoesNotChangeEventTotals) {
  const auto runWith = [](std::size_t workers) {
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<sim::Simulator*> raw;
    std::vector<std::uint64_t> fired(4, 0);
    for (std::size_t d = 0; d < 4; ++d) {
      sims.push_back(std::make_unique<sim::Simulator>());
      raw.push_back(sims.back().get());
      // A little self-rescheduling cascade per domain.
      for (int i = 1; i <= 8; ++i) {
        sims[d]->schedule(SimTime::milliseconds(i * 10 + static_cast<int>(d)),
                          [&fired, d] { ++fired[d]; });
      }
    }
    channelplan::DomainScheduler scheduler{std::move(raw), workers};
    const std::uint64_t executed = scheduler.run(1_s);
    return std::pair{executed, fired};
  };
  const auto [serialExec, serialFired] = runWith(1);
  const auto [parallelExec, parallelFired] = runWith(4);
  EXPECT_EQ(serialExec, 32u);
  EXPECT_EQ(parallelExec, serialExec);
  EXPECT_EQ(serialFired, parallelFired);
}

TEST(DomainScheduler, ThrowingDomainReachesTheCaller) {
  // A domain event that throws surfaces from run() on the caller's thread
  // at any worker count, so a failing run becomes a failed record instead
  // of ending the process from a worker thread.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    sim::Simulator a, b;
    int fired = 0;
    a.schedule(1_s, [&fired] { ++fired; });
    b.schedule(2_s, [] { throw std::runtime_error{"domain failure"}; });
    channelplan::DomainScheduler scheduler{{&a, &b}, workers};
    scheduler.addBarrier(1_s, [&fired] { ++fired; });
    EXPECT_THROW(scheduler.run(4_s), std::runtime_error) << workers;
    EXPECT_EQ(fired, 2) << workers;  // the epoch before the failure ran
  }
}

// ---------------------------------------------------------------------------
// Harness identities

harness::ScenarioConfig smallScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = seed;
  config.duration = 12_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 12_s;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 8, 1, groupRng);
  return config;
}

// Golden pins for one-channel worlds: the FNV-1a hash of the exported trace
// bytes plus events executed, packets delivered and faults applied,
// recorded from the single-simulator builder that predates the channel
// plan. Every §4.1 experiment is a one-domain plan, so these hashes hold
// the plan path to the exact RNG streams, event order and trace bytes of
// that builder. A deliberate behaviour change must re-record them (the
// failure message prints the new values).
struct GoldenRun {
  std::uint64_t traceHash{0};
  std::uint64_t eventsExecuted{0};
  std::uint64_t packetsDelivered{0};
  std::uint64_t faultsApplied{0};
};

// `mustTrace` names a trace fragment the world must produce, so a golden
// that claims to cover a path (PER draws, loss-ramp drops, gateway
// handoffs) fails loudly if the path went quiet.
GoldenRun runGolden(harness::ScenarioConfig config, const std::string& name,
                    const std::string& mustTrace = "") {
  config.tracePath = ::testing::TempDir() + "golden_" + name + ".trace.jsonl";
  const std::size_t channels = config.channels;
  harness::Simulation sim{config};
  EXPECT_EQ(sim.channelCount(), channels);
  const harness::RunResults results = sim.run();
  // Only channels > 1 reports per-channel frame counters.
  EXPECT_EQ(results.channelFrames.size(), channels > 1 ? channels : 0u);
  const std::string bytes = slurp(config.tracePath);
  std::remove(config.tracePath.c_str());
  EXPECT_FALSE(bytes.empty()) << name;
  EXPECT_GT(results.packetsDelivered, 0u) << name;
  if (!mustTrace.empty()) {
    EXPECT_NE(bytes.find(mustTrace), std::string::npos) << name;
  }
  return {fnv1a(bytes), results.eventsExecuted, results.packetsDelivered,
          results.faultsApplied};
}

void expectGolden(const GoldenRun& got, const GoldenRun& want,
                  const std::string& name) {
  EXPECT_EQ(got.traceHash, want.traceHash) << name << " trace bytes moved";
  EXPECT_EQ(got.eventsExecuted, want.eventsExecuted) << name;
  EXPECT_EQ(got.packetsDelivered, want.packetsDelivered) << name;
  EXPECT_EQ(got.faultsApplied, want.faultsApplied) << name;
}

TEST(MultiChannelGolden, StaticWorld) {
  expectGolden(runGolden(smallScenario(4242), "static"),
               {1399117551668253429ULL, 237286, 775, 0}, "static");
}

TEST(MultiChannelGolden, ChurnWorld) {
  harness::ScenarioConfig config = smallScenario(4242);
  fault::ChurnSpec churn;
  churn.crashesPerMinute = 30.0;
  churn.burstsPerMinute = 30.0;
  churn.meanOutage = 2_s;
  churn.warmup = 3_s;
  config.churn = churn;
  expectGolden(runGolden(config, "churn"), {12520021428690154521ULL, 229256, 739, 9},
               "churn");
}

TEST(MultiChannelGolden, MobilityWorld) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.nodeCount = 20;
  config.areaWidthM = 500.0;
  config.areaHeightM = 500.0;
  config.mobilityMaxSpeedMps = 10.0;
  config.seed = 77;
  config.duration = 12_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 12_s;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 1, 6, 1, groupRng);
  expectGolden(runGolden(config, "mobility"), {16086677305367868636ULL, 36092, 569, 0},
               "mobility");
}

TEST(MultiChannelGolden, TestbedFactoryWorld) {
  harness::ScenarioConfig config;
  config.nodeCount = testbed::kNodeCount;
  config.duration = 30_s;
  config.traffic.start = 5_s;
  config.traffic.stop = 25_s;
  config.seed = 11;
  config.fixedPositions = testbed::Floorplan::positions();
  config.linkModelFactory = [](sim::Simulator& simulator, Rng& rng) {
    return testbed::makePurdueFloorModel(simulator, testbed::LossModelParams{},
                                         rng);
  };
  for (const auto& group : testbed::Floorplan::paperGroups()) {
    config.groups.push_back(
        harness::GroupSpec{group.group, group.sources, group.members});
  }
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Pp);
  expectGolden(runGolden(config, "testbed"), {13888435493191300467ULL, 31190, 1278, 0},
               "testbed");
}

TEST(MultiChannelGolden, PositionlessFactoryWorld) {
  // A three-node chain from a static link model, with no positions at all.
  harness::ScenarioConfig config;
  config.nodeCount = 3;
  config.duration = 20_s;
  config.traffic.start = 5_s;
  config.traffic.stop = 18_s;
  config.seed = 5;
  config.groups = {harness::GroupSpec{1, {0}, {2}}};
  config.linkModelFactory = [](sim::Simulator&, Rng&) {
    auto model = std::make_unique<phy::StaticLinkModel>(3);
    model->setSymmetric(0, 1, 1e-8);
    model->setSymmetric(1, 2, 1e-8);
    return model;
  };
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  expectGolden(runGolden(config, "positionless"), {5474156452825827998ULL, 3948, 259, 0},
               "positionless");
}

// Golden pins for the PHY fan-out paths, recorded from the simulator that
// scheduled a begin and an end event per receiver (before transmissions
// became pooled flights): concurrent senders' receptions interleaving,
// per-rate PER draws inside the fan-out, fault-suppressed deliveries with
// and without a loss draw, and epoch horizons cutting flights in two.

TEST(MultiChannelGolden, CollisionHeavyWorld) {
  // 300 nodes at 3x the paper's density: every frame reaches ~150 radios
  // and several senders' receptions overlap at most of them.
  harness::ScenarioConfig config = harness::scaledSimulationScenario(300);
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = 31;
  config.duration = 3_s;
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 3_s;
  config.protocol = harness::ProtocolSpec::original();
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups =
      harness::makeRandomGroups(config.nodeCount, 3, 10, 1, groupRng);
  expectGolden(runGolden(config, "dense", R"("reason":"phy_collision")"),
               {11315334724421642072ULL, 1164268, 141, 0}, "dense");
}

TEST(MultiChannelGolden, MinstrelWorld) {
  harness::ScenarioConfig config = smallScenario(4243);
  config.rateControl = rate::ControlKind::Minstrel;
  config.rateSet = rate::RateSetKind::DsssOfdm;
  expectGolden(runGolden(config, "minstrel", R"(,"rate":)"),
               {14776482432721074876ULL, 365955, 1056, 0}, "minstrel");
}

TEST(MultiChannelGolden, BlackoutAndLossRampWorld) {
  // Node 0 goes dark to every peer (suppressed without a draw) while node
  // 1's links ramp to 50% loss (one Bernoulli draw per delivery).
  harness::ScenarioConfig config = smallScenario(4244);
  for (net::NodeId peer = 1; peer < config.nodeCount; ++peer) {
    fault::FaultEvent blackout;
    blackout.kind = trace::FaultKind::LinkBlackout;
    blackout.node = 0;
    blackout.peer = peer;
    blackout.start = 4_s;
    blackout.duration = 4_s;
    config.faults.add(blackout);
    if (peer == 1) continue;
    fault::FaultEvent ramp;
    ramp.kind = trace::FaultKind::LossRamp;
    ramp.node = 1;
    ramp.peer = peer;
    ramp.start = 3_s;
    ramp.duration = 6_s;
    ramp.lossRate = 0.5;
    config.faults.add(ramp);
  }
  expectGolden(runGolden(config, "lossramp", R"("reason":"fault_link_down")"),
               {1606477152075474890ULL, 295736, 838, 97}, "lossramp");
}

harness::ScenarioConfig gatewayScenario(std::uint64_t seed);

TEST(MultiChannelGolden, GatewayWorldAtOneAndThreeWorkers) {
  // The 50 ms gateway switch slot is an epoch horizon: run(until) stops
  // every domain mid-flight, and the next epoch resumes its receptions.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    harness::ScenarioConfig config = gatewayScenario(9700);
    config.domainWorkers = workers;
    const std::string name = "gateway_w" + std::to_string(workers);
    expectGolden(runGolden(config, name, R"("ev":"gateway_handoff")"),
                 {3249556098705011830ULL, 1864697, 163, 0}, name);
  }
}

// 500 nodes, 3 channels, channel-local groups — the multi-channel scale
// scenario shared by the worker-count and jobs-count identity tests.
harness::ScenarioConfig multiScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(500);
  // Shrink the area by the channel count: each collision domain holds a
  // third of the nodes, and this keeps every domain's subgraph at the
  // paper's 50 nodes/km² (a 1/3-density subsample is disconnected).
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = seed;
  config.duration = 6_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 6_s;
  config.channels = 3;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups =
      harness::makeStripedGroups(config.nodeCount, 3, 1, 8, 1, groupRng);
  return config;
}

TEST(MultiChannel, WorkerCountDoesNotChangeRunBytes) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t workers, const std::string& tracePath) {
    harness::ScenarioConfig config = multiScenario(9300);
    config.domainWorkers = workers;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    EXPECT_EQ(sim.channelCount(), 3u);
    return sim.run();
  };

  const std::string trace1 = dir + "/mc_w1.trace.jsonl";
  const std::string trace2 = dir + "/mc_w2.trace.jsonl";
  const std::string trace4 = dir + "/mc_w4.trace.jsonl";
  const harness::RunResults w1 = runWith(1, trace1);
  const harness::RunResults w2 = runWith(2, trace2);
  const harness::RunResults w4 = runWith(4, trace4);

  for (const harness::RunResults* r : {&w2, &w4}) {
    EXPECT_EQ(w1.packetsSent, r->packetsSent);
    EXPECT_EQ(w1.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(w1.pdr, r->pdr);
    EXPECT_EQ(w1.throughputBps, r->throughputBps);
    EXPECT_EQ(w1.meanDelayS, r->meanDelayS);
    EXPECT_EQ(w1.eventsExecuted, r->eventsExecuted);
    EXPECT_EQ(w1.channelFrames, r->channelFrames);
    EXPECT_EQ(w1.channelDelivered, r->channelDelivered);
  }

  // Per-channel counters are present and live: every domain transmitted.
  ASSERT_EQ(w1.channelFrames.size(), 3u);
  for (const std::uint64_t frames : w1.channelFrames) EXPECT_GT(frames, 0u);
  const std::uint64_t deliveredSum = std::accumulate(
      w1.channelDelivered.begin(), w1.channelDelivered.end(), std::uint64_t{0});
  EXPECT_EQ(deliveredSum, w1.packetsDelivered);
  EXPECT_GT(w1.packetsDelivered, 0u);

  const std::string bytes1 = slurp(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_TRUE(bytes1 == slurp(trace2)) << "workers=2 trace diverged";
  EXPECT_TRUE(bytes1 == slurp(trace4)) << "workers=4 trace diverged";
  // The merged trace is channel-tagged.
  EXPECT_NE(bytes1.find("\"channel\":0"), std::string::npos);
  EXPECT_NE(bytes1.find("\"channel\":2"), std::string::npos);
  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace4.c_str());
}

TEST(MultiChannel, SweepBytesMatchAcrossJobCountsAndVerifyCrossChecks) {
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};

  const auto optionsFor = [](std::size_t jobs, const std::string& dir) {
    harness::BenchOptions options;
    options.topologies = 2;
    options.duration = SimTime::zero();  // keep the scenario's 6 s
    options.baseSeed = 9400;
    options.verbose = false;
    options.jobs = jobs;
    options.traceDir = dir;
    options.jsonlPath = dir + "/results.jsonl";
    return options;
  };

  const std::string dirSerial = ::testing::TempDir() + "mc_jobs1";
  const std::string dirParallel = ::testing::TempDir() + "mc_jobs4";
  const auto runSweep = [&](std::size_t jobs, const std::string& dir) {
    const harness::BenchOptions options = optionsFor(jobs, dir);
    runner::JsonlResultSink sink{options.jsonlPath};
    return runner::runComparisonSweep(protocols, multiScenario, options, &sink);
  };
  const runner::SweepReport serial = runSweep(1, dirSerial);
  const runner::SweepReport parallel = runSweep(4, dirParallel);

  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 2u);
  ASSERT_EQ(parallel.records.size(), 2u);

  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const runner::RunRecord& s = serial.records[i];
    const runner::RunRecord& p = parallel.records[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.results.pdr, p.results.pdr);
    EXPECT_EQ(s.results.channelFrames, p.results.channelFrames);
    EXPECT_EQ(s.eventsExecuted, p.eventsExecuted);

    ASSERT_FALSE(s.tracePath.empty());
    const std::string name =
        s.tracePath.substr(s.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_TRUE(serialBytes == slurp(dirParallel + "/" + name))
        << "trace " << name << " diverged between --jobs 1 and --jobs 4";
  }

  // The per-channel counters written to the results JSONL agree exactly
  // with the channel-tagged trace records — the `meshtrace verify` path.
  const trace::VerifyReport report =
      trace::verifyAgainstResults(dirSerial + "/results.jsonl");
  EXPECT_TRUE(report.ok()) << "file error: " << report.error << ", runs: "
                           << report.runs.size();
  for (const auto& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.tracePath << ": " << run.error;
    EXPECT_TRUE(run.mismatches.empty());
  }

  for (const auto& record : serial.records) {
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
  std::remove((dirSerial + "/results.jsonl").c_str());
  std::remove((dirParallel + "/results.jsonl").c_str());
}

// ---------------------------------------------------------------------------
// Gateways at scale: the 500-node acceptance scenario. Same mesh as
// multiScenario but with *spanning* groups (drawn over the whole id space,
// so membership crosses the Static id-mod-3 domains) and boundary-selected
// gateways carrying the traffic between domains.

harness::ScenarioConfig gatewayScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = multiScenario(seed);
  Rng groupRng = Rng{seed}.fork("gwgroups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 3, 8, 1, groupRng);
  config.gateways = 9;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  return config;
}

TEST(MultiChannelGateway, WorkerCountDoesNotChangeRunBytes) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t workers, const std::string& tracePath) {
    harness::ScenarioConfig config = gatewayScenario(9700);
    config.domainWorkers = workers;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    EXPECT_EQ(sim.channelCount(), 3u);
    EXPECT_EQ(sim.gatewaySet().nodes.size(), 9u);
    return sim.run();
  };

  const std::string trace1 = dir + "/mcgw_w1.trace.jsonl";
  const std::string trace2 = dir + "/mcgw_w2.trace.jsonl";
  const std::string trace4 = dir + "/mcgw_w4.trace.jsonl";
  const harness::RunResults w1 = runWith(1, trace1);
  const harness::RunResults w2 = runWith(2, trace2);
  const harness::RunResults w4 = runWith(4, trace4);

  EXPECT_EQ(w1.gatewayCount, 9u);
  EXPECT_GT(w1.handoffFrames, 0u);
  EXPECT_GT(w1.packetsDelivered, 0u);
  for (const harness::RunResults* r : {&w2, &w4}) {
    EXPECT_EQ(w1.packetsSent, r->packetsSent);
    EXPECT_EQ(w1.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(w1.pdr, r->pdr);
    EXPECT_EQ(w1.throughputBps, r->throughputBps);
    EXPECT_EQ(w1.meanDelayS, r->meanDelayS);
    EXPECT_EQ(w1.eventsExecuted, r->eventsExecuted);
    EXPECT_EQ(w1.channelFrames, r->channelFrames);
    EXPECT_EQ(w1.channelDelivered, r->channelDelivered);
    EXPECT_EQ(w1.handoffFrames, r->handoffFrames);
  }

  const std::string bytes1 = slurp(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_TRUE(bytes1 == slurp(trace2)) << "workers=2 gateway trace diverged";
  EXPECT_TRUE(bytes1 == slurp(trace4)) << "workers=4 gateway trace diverged";
  EXPECT_NE(bytes1.find("\"ev\":\"gateway_handoff\""), std::string::npos);
  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace4.c_str());
}

TEST(MultiChannelGateway, SweepBytesMatchAcrossJobCountsAndVerifyCrossChecks) {
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};

  const auto optionsFor = [](std::size_t jobs, const std::string& dir) {
    harness::BenchOptions options;
    options.topologies = 2;
    options.duration = SimTime::zero();  // keep the scenario's 6 s
    options.baseSeed = 9800;
    options.verbose = false;
    options.jobs = jobs;
    options.traceDir = dir;
    options.jsonlPath = dir + "/results.jsonl";
    return options;
  };

  const std::string dirSerial = ::testing::TempDir() + "mcgw_jobs1";
  const std::string dirParallel = ::testing::TempDir() + "mcgw_jobs4";
  const auto runSweep = [&](std::size_t jobs, const std::string& dir) {
    const harness::BenchOptions options = optionsFor(jobs, dir);
    runner::JsonlResultSink sink{options.jsonlPath};
    return runner::runComparisonSweep(protocols, gatewayScenario, options,
                                      &sink);
  };
  const runner::SweepReport serial = runSweep(1, dirSerial);
  const runner::SweepReport parallel = runSweep(4, dirParallel);

  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 2u);
  ASSERT_EQ(parallel.records.size(), 2u);

  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const runner::RunRecord& s = serial.records[i];
    const runner::RunRecord& p = parallel.records[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.results.pdr, p.results.pdr);
    EXPECT_EQ(s.results.handoffFrames, p.results.handoffFrames);
    EXPECT_GT(s.results.handoffFrames, 0u);
    EXPECT_EQ(s.eventsExecuted, p.eventsExecuted);

    ASSERT_FALSE(s.tracePath.empty());
    const std::string name =
        s.tracePath.substr(s.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_TRUE(serialBytes == slurp(dirParallel + "/" + name))
        << "gateway trace " << name << " diverged between --jobs 1 and 4";
  }

  // The JSONL rows carry gateways / handoff_frames / per-gateway counters;
  // `meshtrace verify` cross-checks them against the gateway_handoff trace
  // records, total and per gateway.
  const trace::VerifyReport report =
      trace::verifyAgainstResults(dirSerial + "/results.jsonl");
  EXPECT_TRUE(report.ok()) << "file error: " << report.error << ", runs: "
                           << report.runs.size();
  for (const auto& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.tracePath << ": " << run.error;
    for (const auto& diff : run.mismatches) {
      ADD_FAILURE() << diff.field << " trace=" << diff.traceValue
                    << " harness=" << diff.harnessValue;
    }
  }
  const std::string jsonl = slurp(dirSerial + "/results.jsonl");
  EXPECT_NE(jsonl.find("\"gateways\":9"), std::string::npos);
  EXPECT_NE(jsonl.find("\"handoff_frames\":"), std::string::npos);

  for (const auto& record : serial.records) {
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
  std::remove((dirSerial + "/results.jsonl").c_str());
  std::remove((dirParallel + "/results.jsonl").c_str());
}

}  // namespace
}  // namespace mesh
