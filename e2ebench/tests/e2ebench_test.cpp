// Unit tests for the benchmark's own arithmetic: order statistics, span
// self time, the derived ratios, and the output-check formulas on
// hand-made scenarios and RunResults.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "checks.hpp"
#include "report.hpp"
#include "rounds.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using mesh::SimTime;
using mesh::harness::RunResults;
using mesh::harness::ScenarioConfig;

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles five = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 4.0);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
}

TEST(Stats, BusyRatio) {
  EXPECT_DOUBLE_EQ(busyRatio(12.0, 4, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(busyRatio(3.0, 1, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(busyRatio(1.0, 4, 0.0), 0.0);
}

TEST(Stats, FrameImbalance) {
  EXPECT_DOUBLE_EQ(frameImbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(frameImbalance({42}), 1.0);
  EXPECT_DOUBLE_EQ(frameImbalance({10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(frameImbalance({30, 10, 20}), 1.5);
  EXPECT_DOUBLE_EQ(frameImbalance({0, 0}), 1.0);
}

std::vector<Span> spanTree() {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping, parallel)
  // and [8, 12] (runs past the root); grandchild [1, 2] under child 1.
  return {{"root", 0.0, 10.0, -1}, {"a", 1.0, 4.0, 0}, {"b", 3.0, 6.0, 0},
          {"c", 8.0, 12.0, 0},     {"a.x", 1.0, 2.0, 1}};
}

TEST(Spans, SelfTimeSubtractsMergedClippedChildren) {
  const std::vector<Span> spans = spanTree();
  // Children cover [1, 6] and [8, 10]: 7 of the root's 10 s.
  EXPECT_DOUBLE_EQ(selfTime(spans, 0), 3.0);
  EXPECT_DOUBLE_EQ(selfTime(spans, 1), 2.0);
  EXPECT_DOUBLE_EQ(selfTime(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(selfTime(spans, 4), 1.0);
}

TEST(Spans, TotalsByNameSumSelfAndDuration) {
  std::vector<Span> spans = spanTree();
  spans.push_back({"a", 20.0, 21.5, -1});
  const auto totals = totalsByName(spans);
  EXPECT_DOUBLE_EQ(totals.at("a").selfS, 3.5);
  EXPECT_DOUBLE_EQ(totals.at("a").totalS, 4.5);
  EXPECT_EQ(totals.at("a").count, 2U);
  EXPECT_DOUBLE_EQ(totals.at("root").selfS, 3.0);
}

TEST(Spans, RecorderNestsAndClosesSpans) {
  SpanRecorder recorder;
  {
    const ScopedSpan outer{&recorder, "outer", -1};
    const ScopedSpan inner{&recorder, "inner", outer.id()};
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].startS, spans[1].startS);
  EXPECT_GE(spans[0].endS, spans[1].endS);
  const ScopedSpan off{nullptr, "ignored", -1};
  EXPECT_EQ(off.id(), -1);
}

// Two groups: group 1 has 2 sources and 3 members (one member is also a
// source), group 2 has 1 source and 4 members. 20 pkt/s over 10 s.
ScenarioConfig handMadeScenario() {
  ScenarioConfig config;
  config.nodeCount = 12;
  config.duration = SimTime::seconds(std::int64_t{15});
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.payloadBytes = 512;
  config.traffic.start = SimTime::seconds(std::int64_t{5});
  config.traffic.stop = SimTime::seconds(std::int64_t{15});
  config.groups = {{1, {0, 1}, {1, 2, 3}}, {2, {4}, {5, 6, 7, 8}}};
  return config;
}

RunResults consistentResults(const ScenarioConfig& config) {
  RunResults results;
  results.packetsSent = 3 * 200;
  // Source 0 -> 3 members, source 1 -> 2 (itself excluded), source 4 -> 4.
  results.expectedDeliveries = 200 * (3 + 2 + 4);
  results.packetsDelivered = 1500;
  results.throughputBps = 1500.0 * 512 * 8 / 10.0;
  results.faultsApplied = faultsInsideRun(config);
  return results;
}

TEST(Checks, FormulasFromInputs) {
  const ScenarioConfig config = handMadeScenario();
  EXPECT_EQ(packetsPerSource(config), 200U);
  EXPECT_EQ(expectedPacketsSent(config), 600U);
  EXPECT_EQ(expectedDeliveries(config), 1800U);
  EXPECT_DOUBLE_EQ(expectedThroughputBps(config, 1500), 614400.0);
}

TEST(Checks, ConsistentResultsPass) {
  const ScenarioConfig config = handMadeScenario();
  Failures failures;
  checkResults("cell", config, consistentResults(config), false, failures);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(Checks, EachWrongFieldFails) {
  const ScenarioConfig config = handMadeScenario();
  const auto failuresFor = [&](auto mutate, bool expectHandoff = false) {
    RunResults results = consistentResults(config);
    mutate(results);
    Failures failures;
    checkResults("cell", config, results, expectHandoff, failures);
    return failures.size();
  };
  EXPECT_EQ(failuresFor([](RunResults& r) { r.packetsSent += 1; }), 1U);
  EXPECT_EQ(failuresFor([](RunResults& r) { r.expectedDeliveries -= 1; }), 1U);
  EXPECT_EQ(failuresFor([](RunResults& r) { r.throughputBps *= 1.001; }), 1U);
  EXPECT_EQ(failuresFor([](RunResults& r) { r.faultsApplied += 1; }), 1U);
  EXPECT_EQ(failuresFor([](RunResults& r) { r.handoffFrames = 5; }), 1U);
  EXPECT_EQ(failuresFor([](RunResults&) {}, /*expectHandoff=*/true), 1U);
  EXPECT_EQ(failuresFor(
                [](RunResults& r) {
                  r.handoffFrames = 5;
                  r.gatewayStats = {{1, 9, 2, 0}, {7, 9, 3, 0}};
                },
                /*expectHandoff=*/true),
            0U);
}

TEST(Checks, FaultsCountedInsideTheRunOnly) {
  ScenarioConfig config = handMadeScenario();
  mesh::fault::FaultEvent inside;
  inside.node = 9;
  inside.start = SimTime::seconds(std::int64_t{14});
  inside.duration = SimTime::seconds(std::int64_t{5});
  mesh::fault::FaultEvent after = inside;
  after.start = SimTime::seconds(std::int64_t{15});
  config.faults = mesh::fault::FaultSchedule::fromEvents({inside, after});
  EXPECT_EQ(faultsInsideRun(config), 1U);
}

TEST(Checks, LayerFrameSums) {
  RunResults results;
  results.channelFrames = {40, 60};
  CellLayers layers;
  layers.transmissions = 100;
  layers.framesSent = 100;
  layers.nodeFramesSent = 90;  // the other 10 came from gateway ports
  Failures failures;
  checkLayers("cell", layers, results, /*hasGateways=*/true, failures);
  EXPECT_TRUE(failures.empty());
  checkLayers("cell", layers, results, /*hasGateways=*/false, failures);
  EXPECT_EQ(failures.size(), 1U);
  results.channelFrames = {40, 59};
  failures.clear();
  checkLayers("cell", layers, results, /*hasGateways=*/true, failures);
  EXPECT_EQ(failures.size(), 1U);
}

TEST(Checks, SppOverOdmrpOnAverage) {
  const auto record = [](std::size_t topology, const char* name, double pdr) {
    mesh::runner::RunRecord r;
    r.ok = true;
    r.topologyIndex = topology;
    r.protocolName = name;
    r.results.pdr = pdr;
    return r;
  };
  Failures failures;
  EXPECT_TRUE(checkSppOverOdmrp({record(0, "ODMRP", 0.6), record(0, "ETX", 0.5),
                                 record(0, "SPP", 0.7), record(1, "ODMRP", 0.5),
                                 record(1, "SPP", 0.9)},
                                failures)
                  .empty());
  EXPECT_TRUE(failures.empty());
  // Topology 1 breaks the ordering on its own; the mean still holds.
  const std::vector<std::size_t> exceptions = checkSppOverOdmrp(
      {record(0, "ODMRP", 0.6), record(0, "SPP", 0.8), record(1, "ODMRP", 0.5),
       record(1, "SPP", 0.49)},
      failures);
  EXPECT_EQ(exceptions, std::vector<std::size_t>{1});
  EXPECT_TRUE(failures.empty());
  checkSppOverOdmrp({record(0, "ODMRP", 0.6), record(0, "SPP", 0.6)}, failures);
  EXPECT_EQ(failures.size(), 1U);
}

TEST(Checks, SameResultsComparesEveryField) {
  const ScenarioConfig config = handMadeScenario();
  const RunResults a = consistentResults(config);
  RunResults b = a;
  EXPECT_TRUE(sameResults(a, b));
  b.meanDelayS = 1e-300;
  EXPECT_FALSE(sameResults(a, b));
  b = a;
  b.gatewayStats = {{3, 1, 1, 0}};
  EXPECT_FALSE(sameResults(a, b));
}

TEST(Workloads, InputsFollowTheSeed) {
  const Workload a = makeWorkload("churn-50", 7, 4);
  const Workload b = makeWorkload("churn-50", 7, 4);
  const Workload c = makeWorkload("churn-50", 8, 4);
  EXPECT_EQ(a.options.baseSeed, b.options.baseSeed);
  EXPECT_NE(a.options.baseSeed, c.options.baseSeed);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  EXPECT_EQ(a.scenarios[0].faults.size(), b.scenarios[0].faults.size());
  EXPECT_GT(a.scenarios[0].faults.size(), 0U);
  // Sources and members are never fault victims.
  for (const auto& event : a.scenarios[0].faults.events()) {
    for (const auto& group : a.scenarios[0].groups) {
      for (const auto node : group.sources) EXPECT_NE(event.node, node);
      for (const auto node : group.members) EXPECT_NE(event.node, node);
    }
  }
  // churn-50 runs fig2-50's topologies; span2000 runs dense2000's.
  EXPECT_EQ(makeWorkload("fig2-50", 7, 4).options.baseSeed, a.options.baseSeed);
  EXPECT_EQ(makeWorkload("span2000-3ch-gw", 7, 4).scenarios[0].groups[0].members,
            makeWorkload("dense2000-1ch", 7, 4).scenarios[0].groups[0].members);
}

TEST(Workloads, ThreadsNeverExceedNproc) {
  for (const std::string& name : workloadNames()) {
    for (std::size_t nproc : {1U, 2U, 3U, 4U, 8U}) {
      EXPECT_LE(makeWorkload(name, 1, nproc).threads(), nproc) << name;
    }
  }
  EXPECT_THROW(makeWorkload("nope", 1, 4), std::invalid_argument);
}

TEST(Report, ResultLineShape) {
  const std::string line =
      resultLine(true, 12, 0, {{"sweep_wall_s", 1.25, "s"}, {"cpu_s", 3.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"sweep_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"cpu_s\": "
            "{\"value\": 3.5, \"unit\": \"s\"}}}");
}

// A small two-job workload: two 50-node topologies, ODMRP and SPP, 5 s of
// traffic. The traced round must reproduce the runner's RunResults for
// every cell and pass the layer checks.
TEST(Rounds, TracedRoundMatchesRunnerSweep) {
  Workload w;
  w.name = "small";
  w.protocols = {mesh::harness::ProtocolSpec::original(),
                 mesh::harness::ProtocolSpec::with(mesh::metrics::MetricKind::Spp)};
  w.options.topologies = 2;
  w.options.duration = SimTime::seconds(std::int64_t{35});
  w.options.baseSeed = 41;
  w.options.verbose = false;
  w.options.jobs = 2;
  for (std::uint64_t t = 0; t < 2; ++t) {
    ScenarioConfig config = mesh::harness::paperSimulationScenario();
    config.seed = w.options.baseSeed + t;
    config.duration = w.options.duration;
    config.traffic.stop = config.duration;
    mesh::Rng rng{config.seed};
    config.groups = mesh::harness::makeRandomGroups(50, 2, 10, 1, rng);
    w.scenarios.push_back(config);
  }
  const Round plain = runUntracedRound(w, nullptr);
  const Round traced = runTracedRound(w, nullptr);
  ASSERT_EQ(plain.records.size(), 4U);
  ASSERT_EQ(traced.records.size(), 4U);
  ASSERT_EQ(traced.layers.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(plain.records[i].ok) << plain.records[i].error;
    ASSERT_TRUE(traced.records[i].ok) << traced.records[i].error;
    EXPECT_EQ(traced.records[i].protocolIndex, plain.records[i].protocolIndex);
    EXPECT_TRUE(sameResults(plain.records[i].results, traced.records[i].results));
    Failures failures;
    const ScenarioConfig& config = w.scenarios[traced.records[i].topologyIndex];
    checkResults("cell", config, traced.records[i].results, false, failures);
    checkLayers("cell", traced.layers[i], traced.records[i].results, false, failures);
    EXPECT_TRUE(failures.empty()) << failures.front();
  }
  const auto totals = totalsByName(traced.spans);
  EXPECT_EQ(totals.at("sim.run").count, 4U);
  EXPECT_EQ(totals.at("harness.build").count, 2U);
  EXPECT_EQ(totals.at("harness.adopt").count, 2U);
  EXPECT_EQ(totals.at("runner.sweep").count, 1U);
  const auto values = layerValues(w, traced);
  EXPECT_GT(values.at("sim.events"), 0.0);
  EXPECT_DOUBLE_EQ(values.at("runner.snapshots_built"), 2.0);
  EXPECT_GT(values.at("runner.busy_ratio"), 0.0);
  EXPECT_LE(values.at("runner.busy_ratio"), 1.0);
}

// Every workload and metric the benchmark prints is declared, with the same
// unit, in the repository's BENCHMARK.json (and nothing it declares is
// missing from the benchmark output).
TEST(Report, NamesAndUnitsMatchBenchmarkJson) {
  std::ifstream file{E2E_BENCHMARK_JSON};
  if (!file) GTEST_SKIP() << "no " << E2E_BENCHMARK_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  const auto declared = [&json](const std::string& name, const std::string& unit) {
    return json.find("{\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"") !=
           std::string::npos;
  };
  for (const std::string& name : workloadNames()) {
    EXPECT_NE(json.find("{\"name\": \"" + name + "\", \"why\""), std::string::npos)
        << name;
  }
  const Workload workload = makeWorkload("fig2-50", 1, 4);
  std::size_t metrics = 0;
  for (const Metric& metric : endToEndMetrics(workload, {}, 1.0)) {
    EXPECT_TRUE(declared(metric.name, metric.unit)) << metric.name;
    ++metrics;
  }
  for (const auto& [name, unit] : perLayerUnits()) {
    EXPECT_TRUE(declared(name, unit)) << name;
    ++metrics;
  }
  std::size_t entries = 0;
  for (std::size_t at = json.find("\"better\""); at != std::string::npos;
       at = json.find("\"better\"", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, metrics);
}

}  // namespace
}  // namespace e2e
