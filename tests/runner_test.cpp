// Parallel experiment runner: thread pool, deterministic aggregation,
// result sinks, and per-run failure capture.
//
// The load-bearing test is ParallelIsBitIdenticalToSerial: jobs=4 must
// produce byte-for-byte the same ComparisonRow statistics as the legacy
// serial path, because each Simulation forks its Rng from the run seed and
// the Aggregator folds in (topology, protocol) order regardless of
// completion order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/runner/aggregator.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/runner/thread_pool.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;
using harness::BenchOptions;
using harness::ComparisonRow;
using harness::ProtocolSpec;
using harness::ScenarioConfig;

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, DrainsAllJobsExactlyOnce) {
  constexpr std::size_t kJobs = 500;
  std::vector<std::atomic<int>> hits(kJobs);
  runner::ThreadPool pool{4};
  EXPECT_EQ(pool.workerCount(), 4u);
  for (std::size_t i = 0; i < kJobs; ++i) {
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.wait();
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
  EXPECT_EQ(pool.jobsExecuted(), kJobs);
  EXPECT_EQ(pool.jobsThrown(), 0u);
}

TEST(ThreadPool, SurvivesThrowingJobsWithoutDeadlock) {
  std::atomic<int> ran{0};
  runner::ThreadPool pool{3};
  for (int i = 0; i < 60; ++i) {
    if (i % 3 == 0) {
      pool.submit([] { throw std::runtime_error{"boom"}; });
    } else {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  pool.wait();  // must not hang on the 20 throwing jobs
  EXPECT_EQ(ran.load(), 40);
  EXPECT_EQ(pool.jobsExecuted(), 60u);
  EXPECT_EQ(pool.jobsThrown(), 20u);
}

TEST(ThreadPool, WaitCanBeCalledRepeatedly) {
  runner::ThreadPool pool{2};
  pool.wait();  // nothing submitted yet
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

// ------------------------------------------------------------ aggregator

runner::RunRecord recordFor(std::size_t t, std::size_t p, double pdr) {
  runner::RunRecord record;
  record.topologyIndex = t;
  record.protocolIndex = p;
  record.seed = 1000 + t;
  record.ok = true;
  record.results.pdr = pdr;
  return record;
}

TEST(Aggregator, FoldsInTopologyMajorOrderRegardlessOfDeliveryOrder) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Etx)};

  runner::Aggregator forward{protocols, 3};
  runner::Aggregator shuffled{protocols, 3};
  std::vector<runner::RunRecord> records;
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t p = 0; p < 2; ++p) {
      records.push_back(recordFor(t, p, 0.1 * static_cast<double>(3 * t + p)));
    }
  }
  for (const auto& r : records) forward.deliver(r);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    shuffled.deliver(*it);
  }

  const auto a = forward.rows();
  const auto b = shuffled.rows();
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(a[p].pdr.count(), 3u);
    EXPECT_EQ(a[p].pdr.mean(), b[p].pdr.mean());
    EXPECT_EQ(a[p].pdr.ci95HalfWidth(), b[p].pdr.ci95HalfWidth());
  }
  // records() comes back in deterministic (topology, protocol) order.
  const auto ordered = shuffled.records();
  ASSERT_EQ(ordered.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ordered[i].topologyIndex, i / 2);
    EXPECT_EQ(ordered[i].protocolIndex, i % 2);
  }
}

// ------------------------------------------------------------ sweeps

// A deliberately small mesh so a full sweep stays fast: 10 nodes in a
// 300 m square (well-connected at the 250 m nominal range), one group,
// a few seconds of traffic.
ScenarioConfig smallScenario(std::uint64_t topologySeed) {
  ScenarioConfig config;
  config.nodeCount = 10;
  config.areaWidthM = 300.0;
  config.areaHeightM = 300.0;
  config.rayleighFading = true;
  config.duration = 6_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 6_s;
  Rng groupRng = Rng{topologySeed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 1, 3, 1, groupRng);
  return config;
}

BenchOptions smallOptions(std::size_t jobs) {
  BenchOptions options;
  options.topologies = 3;
  options.duration = SimTime::zero();  // keep the scenario's 6 s
  options.baseSeed = 1000;
  options.verbose = false;
  options.jobs = jobs;
  return options;
}

void expectStatsBitIdentical(const OnlineStats& a, const OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sampleVariance(), b.sampleVariance());
  EXPECT_EQ(a.ci95HalfWidth(), b.ci95HalfWidth());
}

TEST(Sweep, ParallelIsBitIdenticalToSerial) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Etx),
      ProtocolSpec::with(metrics::MetricKind::Spp)};

  const std::vector<ComparisonRow> serial =
      harness::runProtocolComparison(protocols, smallScenario, smallOptions(1));
  const std::vector<ComparisonRow> parallel =
      harness::runProtocolComparison(protocols, smallScenario, smallOptions(4));

  ASSERT_EQ(serial.size(), protocols.size());
  ASSERT_EQ(parallel.size(), protocols.size());
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    EXPECT_EQ(serial[p].name, parallel[p].name);
    expectStatsBitIdentical(serial[p].pdr, parallel[p].pdr);
    expectStatsBitIdentical(serial[p].throughputBps, parallel[p].throughputBps);
    expectStatsBitIdentical(serial[p].delayS, parallel[p].delayS);
    expectStatsBitIdentical(serial[p].overheadPct, parallel[p].overheadPct);
    expectStatsBitIdentical(serial[p].controlBytes, parallel[p].controlBytes);
    EXPECT_GT(serial[p].pdr.count(), 0u);
  }
}

TEST(Sweep, ThrowingRunIsReportedWithoutAbortingTheSweep) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::with(metrics::MetricKind::Etx)};
  const auto makeScenario = [](std::uint64_t seed) {
    ScenarioConfig config = smallScenario(seed);
    if (seed == 1001) {
      // The factory runs inside Simulation::build() on the worker — a
      // diverging run, captured per-record instead of killing the sweep.
      config.linkModelFactory =
          [](sim::Simulator&, Rng&) -> std::unique_ptr<phy::LinkModel> {
        throw std::runtime_error{"injected divergence"};
      };
    }
    return config;
  };

  const runner::SweepReport report = runner::runComparisonSweep(
      protocols, makeScenario, smallOptions(4), nullptr);

  EXPECT_EQ(report.failures, 1u);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_TRUE(report.records[0].ok);
  EXPECT_FALSE(report.records[1].ok);
  EXPECT_NE(report.records[1].error.find("injected divergence"),
            std::string::npos);
  EXPECT_TRUE(report.records[2].ok);
  // The failed topology is excluded from the aggregates; the rest fold.
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].pdr.count(), 2u);
}

TEST(Sweep, EmptyTrafficWindowFailsOnlyItsCell) {
  // A source whose stop is not after its start cannot run; the builder
  // refuses that world, so its cell fails and its siblings complete.
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::with(metrics::MetricKind::Etx)};
  const auto makeScenario = [](std::uint64_t seed) {
    ScenarioConfig config = smallScenario(seed);
    if (seed == 1001) config.traffic.stop = config.traffic.start - 1_s;
    return config;
  };
  const std::string path = testing::TempDir() + "runner_test_bad_window.jsonl";
  runner::SweepReport report;
  {
    runner::JsonlResultSink sink{path};
    report = runner::runComparisonSweep(protocols, makeScenario,
                                        smallOptions(2), &sink);
  }

  EXPECT_EQ(report.failures, 1u);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_TRUE(report.records[0].ok);
  EXPECT_FALSE(report.records[1].ok);
  EXPECT_NE(report.records[1].error.find("traffic window is empty"),
            std::string::npos)
      << report.records[1].error;
  EXPECT_TRUE(report.records[2].ok);

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::size_t okLines = 0, failedLines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ok\":true") != std::string::npos) ++okLines;
    if (line.find("\"ok\":false") != std::string::npos) {
      ++failedLines;
      EXPECT_NE(line.find("\"error\":\"traffic window is empty"),
                std::string::npos)
          << line;
    }
  }
  EXPECT_EQ(okLines, 2u);
  EXPECT_EQ(failedLines, 1u);
  std::remove(path.c_str());
}

TEST(Sweep, JsonlSinkReceivesOneRecordPerRun) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Spp)};
  const std::string path = testing::TempDir() + "runner_test_sweep.jsonl";

  {
    runner::JsonlResultSink sink{path};
    const runner::SweepReport report = runner::runComparisonSweep(
        protocols, smallScenario, smallOptions(2), &sink);
    EXPECT_EQ(report.records.size(), 6u);
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(report.jobs, 2u);
    for (const runner::RunRecord& record : report.records) {
      EXPECT_TRUE(record.ok);
      EXPECT_GT(record.eventsExecuted, 0u);
      EXPECT_GE(record.wallSeconds, 0.0);
    }
  }

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  bool sawSeed = false, sawProtocol = false, sawWall = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"seed\":1000") != std::string::npos) sawSeed = true;
    if (line.find("\"protocol\":\"SPP\"") != std::string::npos) sawProtocol = true;
    if (line.find("\"wall_s\":") != std::string::npos) sawWall = true;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(line.find("\"pdr\":"), std::string::npos);
    EXPECT_NE(line.find("\"events\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 6u);
  EXPECT_TRUE(sawSeed);
  EXPECT_TRUE(sawProtocol);
  EXPECT_TRUE(sawWall);
  std::remove(path.c_str());
}

TEST(JsonlSink, EscapesControlAndQuoteCharacters) {
  runner::RunRecord record;
  record.protocolName = "OD\"MRP";
  record.error = "line1\nline2\ttab";
  const std::string json = runner::JsonlResultSink::toJson(record);
  EXPECT_NE(json.find("\"protocol\":\"OD\\\"MRP\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

TEST(Sweep, MeshsimStyleSingleProtocolRepeatSweep) {
  // What tools/meshsim does with --repeat 3 --jobs 2: one protocol, three
  // seeds; base seed comes from the scenario file.
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::with(metrics::MetricKind::Metx)};
  BenchOptions options = smallOptions(2);
  options.baseSeed = 7;
  const runner::SweepReport report =
      runner::runComparisonSweep(protocols, smallScenario, options, nullptr);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.records[0].seed, 7u);
  EXPECT_EQ(report.records[1].seed, 8u);
  EXPECT_EQ(report.records[2].seed, 9u);
  EXPECT_EQ(report.rows[0].pdr.count(), 3u);
}

}  // namespace
}  // namespace mesh
