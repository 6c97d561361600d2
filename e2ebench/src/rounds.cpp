#include "rounds.hpp"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <memory>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/phy/spatial_grid.hpp"
#include "mesh/runner/aggregator.hpp"
#include "mesh/runner/snapshot_cache.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/runner/thread_pool.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using mesh::runner::RunPlan;
using mesh::runner::RunRecord;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The nominal 250 m reception range the harness scores channel-plan and
// gateway candidates against.
constexpr double kNeighborRadiusM = 250.0;

}  // namespace

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Round runUntracedRound(const Workload& workload,
                       mesh::runner::ResultSink* sink) {
  Round round;
  const double cpu0 = processCpuSeconds();
  const auto start = Clock::now();
  mesh::runner::SweepReport report = mesh::runner::runComparisonSweep(
      workload.protocols,
      [&workload](std::uint64_t seed) { return workload.scenarioFor(seed); },
      workload.options, sink);
  round.wallS = secondsSince(start);
  round.cpuS = processCpuSeconds() - cpu0;
  round.records = std::move(report.records);
  return round;
}

Round runTracedRound(const Workload& workload, mesh::runner::ResultSink* sink) {
  SpanRecorder spans;
  Round round;
  round.traced = true;
  const std::size_t topologies = workload.options.topologies;
  std::vector<std::vector<mesh::Vec2>> positions(topologies);
  std::vector<double> gridCellM(topologies, 0.0);

  const double cpu0 = processCpuSeconds();
  const auto start = Clock::now();
  {
    const ScopedSpan sweep{&spans, "runner.sweep", -1};
    std::vector<RunPlan> plans;
    {
      const ScopedSpan span{&spans, "runner.plans", sweep.id()};
      plans = mesh::runner::buildComparisonPlans(
          workload.protocols,
          [&workload](std::uint64_t seed) { return workload.scenarioFor(seed); },
          workload.options);
    }
    mesh::runner::SnapshotCache cache;
    mesh::runner::Aggregator aggregator{workload.protocols, topologies};
    std::vector<CellLayers> layers(plans.size());

    const auto runCell = [&](std::size_t index) {
      const RunPlan& plan = plans[index];
      const ScopedSpan cell{&spans, "runner.cell", sweep.id()};
      RunRecord record;
      record.topologyIndex = plan.topologyIndex;
      record.protocolIndex = plan.protocolIndex;
      record.seed = plan.seed;
      record.protocolName = plan.protocolName;

      mesh::runner::TopologySnapshotPtr snapshot;
      bool shouldBuild = false;
      std::string key;
      if (mesh::harness::snapshotEligible(plan.config)) {
        const ScopedSpan span{&spans, "runner.snapshot_wait", cell.id()};
        key = mesh::runner::SnapshotCache::keyFor(plan.config);
        snapshot = cache.acquire(key, shouldBuild);
      }
      const auto cellStart = Clock::now();
      try {
        std::unique_ptr<mesh::harness::Simulation> sim;
        if (snapshot != nullptr) {
          const ScopedSpan span{&spans, "harness.adopt", cell.id()};
          sim = std::make_unique<mesh::harness::Simulation>(plan.config,
                                                            std::move(snapshot));
          record.snapshot = "reused";
        } else {
          {
            const ScopedSpan span{&spans, "harness.build", cell.id()};
            sim = std::make_unique<mesh::harness::Simulation>(plan.config);
          }
          if (shouldBuild) {
            const ScopedSpan span{&spans, "harness.capture", cell.id()};
            mesh::runner::TopologySnapshotPtr built = sim->captureSnapshot();
            if (built != nullptr && !built->reach.empty() && built->reach[0]) {
              gridCellM[plan.topologyIndex] = built->reach[0]->grid.cellSizeM();
            }
            cache.publish(key, std::move(built));
            shouldBuild = false;
            record.snapshot = "built";
          }
        }
        record.setupSeconds = secondsSince(cellStart);
        {
          const ScopedSpan span{&spans, "sim.run", cell.id()};
          record.results = sim->run();
        }
        record.eventsExecuted = record.results.eventsExecuted;
        record.ok = true;
        {
          const ScopedSpan span{&spans, "bench.stats", cell.id()};
          layers[index] = collectLayers(*sim);
          if (plan.protocolIndex == 0) positions[plan.topologyIndex] = sim->positions();
        }
      } catch (const std::exception& e) {
        record.error = e.what();
      } catch (...) {
        record.error = "unknown exception";
      }
      if (shouldBuild) cache.abandon(key);
      record.wallSeconds = secondsSince(cellStart);
      if (sink != nullptr) {
        const ScopedSpan span{&spans, "runner.sink_write", cell.id()};
        sink->write(record);
      }
      aggregator.deliver(std::move(record));
    };

    if (workload.options.jobs <= 1) {
      for (std::size_t i = 0; i < plans.size(); ++i) runCell(i);
    } else {
      mesh::runner::ThreadPool pool{workload.options.jobs};
      for (std::size_t i = 0; i < plans.size(); ++i) {
        pool.submit([&runCell, i] { runCell(i); });
      }
      pool.wait();
    }
    round.records = aggregator.records();
    // Aggregator::records() is in (topology, protocol) order; so are plans.
    round.layers = std::move(layers);
  }
  round.wallS = secondsSince(start);
  round.cpuS = processCpuSeconds() - cpu0;

  // The world-building steps the harness runs inside the Simulation
  // constructor, timed on their own over each topology's positions.
  for (std::size_t t = 0; t < topologies; ++t) {
    if (positions[t].empty()) continue;
    const mesh::harness::ScenarioConfig& config = workload.scenarios[t];
    {
      const ScopedSpan span{&spans, "phy.grid_build", -1};
      mesh::phy::SpatialGrid grid;
      grid.build(positions[t], gridCellM[t] > 0.0 ? gridCellM[t]
                                                  : kNeighborRadiusM / 2.0);
    }
    mesh::channelplan::ChannelPlan plan;
    {
      const ScopedSpan span{&spans, "channelplan.assign", -1};
      plan = mesh::channelplan::makeChannelPlan(
          config.channelAssign, config.channels, positions[t], kNeighborRadiusM);
    }
    {
      const ScopedSpan span{&spans, "gateway.select", -1};
      mesh::gateway::makeGatewaySet(config.gatewaySelect, config.gateways,
                                    config.gatewayNodes, plan, positions[t],
                                    kNeighborRadiusM);
    }
  }
  round.spans = spans.spans();
  return round;
}

}  // namespace e2e
