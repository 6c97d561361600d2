#include "report.hpp"

#include <charconv>

#include "stats.hpp"

namespace e2e {
namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Shortest round-trip text of a double.
std::string jsonNumber(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : std::string{"0"};
}

}  // namespace

std::vector<Metric> endToEndMetrics(const Workload& workload,
                                    const std::vector<Round>& rounds,
                                    double peakRss) {
  std::vector<double> wall, setup, cpu, simRate;
  for (const Round& round : rounds) {
    if (round.traced) continue;
    wall.push_back(round.wallS);
    cpu.push_back(round.cpuS);
    // Simulated seconds per host second of Simulation::run() (a run's
    // wall time minus its construction), pooled over the round's runs.
    // Pooling rather than a median over runs: on fig2-50 the runs split
    // into a fast ODMRP mode and a slower metric mode, and a median of
    // that mix jumps between the two.
    double setupSum = 0.0, simulatedS = 0.0, runS = 0.0;
    for (const auto& record : round.records) {
      setupSum += record.setupSeconds;
      if (!record.ok) continue;
      simulatedS += workload.scenarios[record.topologyIndex].duration.toSeconds();
      runS += record.wallSeconds - record.setupSeconds;
    }
    setup.push_back(setupSum);
    simRate.push_back(runS > 0.0 ? simulatedS / runS : 0.0);
  }
  return {{"sweep_wall_s", median(wall), "s"},
          {"sim_s_per_s", median(simRate), "sim-s/s"},
          {"setup_s", median(setup), "s"},
          {"cpu_s", median(cpu), "s"},
          {"peak_rss_mib", peakRss, "MiB"}};
}

const std::vector<std::pair<std::string, std::string>>& perLayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.events", "count"},
      {"sim.run_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"phy.transmissions", "count"},
      {"phy.rx_scheduled", "count"},
      {"phy.fanout", "ratio"},
      {"phy.rx_decoded", "count"},
      {"phy.rx_useful_ratio", "ratio"},
      {"phy.grid_build_s", "s"},
      {"phy.reach_rebuilds", "count"},
      {"phy.rows_rebuilt", "count"},
      {"mac.enqueued", "count"},
      {"mac.broadcast_sent", "count"},
      {"mac.unicast_sent", "count"},
      {"mac.retries", "count"},
      {"mac.queue_drops", "count"},
      {"probe.sent", "count"},
      {"probe.bytes_rx", "B"},
      {"probe.overhead_pct", "%"},
      {"probe.pairs_completed", "count"},
      {"route.queries_forwarded", "count"},
      {"route.dup_queries_forwarded", "count"},
      {"route.data_forwarded", "count"},
      {"route.data_duplicates", "count"},
      {"app.packets_sent", "count"},
      {"app.deliveries", "count"},
      {"harness.build_s", "s"},
      {"harness.adopt_s", "s"},
      {"harness.capture_s", "s"},
      {"runner.runs", "count"},
      {"runner.runs_failed", "count"},
      {"runner.snapshots_built", "count"},
      {"runner.snapshots_reused", "count"},
      {"runner.busy_ratio", "ratio"},
      {"runner.sink_write_s", "s"},
      {"runner.snapshot_wait_s", "s"},
      {"fault.applied", "count"},
      {"fault.cleared", "count"},
      {"fault.repairs_observed", "count"},
      {"channelplan.assign_s", "s"},
      {"channelplan.frame_imbalance", "ratio"},
      {"gateway.select_s", "s"},
      {"gateway.handoff_frames", "count"},
      {"bench.span_overhead_pct", "%"},
  };
  return units;
}

std::map<std::string, double> layerValues(const Workload& workload,
                                          const Round& traced) {
  CellLayers sum;
  double events = 0.0, sent = 0.0, delivered = 0.0, repairs = 0.0;
  double built = 0.0, reused = 0.0, failedRuns = 0.0;
  std::vector<std::uint64_t> domainFrames;
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    const auto& record = traced.records[i];
    if (record.snapshot == "built") built += 1.0;
    if (record.snapshot == "reused") reused += 1.0;
    if (!record.ok) {
      failedRuns += 1.0;
      continue;
    }
    sum += traced.layers[i];
    const auto& results = record.results;
    events += static_cast<double>(results.eventsExecuted);
    sent += static_cast<double>(results.packetsSent);
    delivered += static_cast<double>(results.packetsDelivered);
    repairs += static_cast<double>(results.repairsObserved);
    domainFrames.resize(std::max(domainFrames.size(), results.channelFrames.size()));
    for (std::size_t d = 0; d < results.channelFrames.size(); ++d) {
      domainFrames[d] += results.channelFrames[d];
    }
  }
  const auto spans = totalsByName(traced.spans);
  const auto self = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it != spans.end() ? it->second.selfS : 0.0;
  };
  const auto total = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it != spans.end() ? it->second.totalS : 0.0;
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double runS = self("sim.run");
  return {
      {"sim.events", events},
      {"sim.run_s", runS},
      {"sim.ns_per_event", ratio(runS * 1e9, events)},
      {"phy.transmissions", count(sum.transmissions)},
      {"phy.rx_scheduled", count(sum.rxScheduled)},
      {"phy.fanout", ratio(count(sum.rxScheduled), count(sum.transmissions))},
      {"phy.rx_decoded", count(sum.framesDecoded)},
      {"phy.rx_useful_ratio", ratio(count(sum.framesDecoded), count(sum.rxScheduled))},
      {"phy.grid_build_s", self("phy.grid_build")},
      {"phy.reach_rebuilds", count(sum.reachRebuilds)},
      {"phy.rows_rebuilt", count(sum.rowsRebuilt)},
      {"mac.enqueued", count(sum.macEnqueued)},
      {"mac.broadcast_sent", count(sum.macBroadcastSent)},
      {"mac.unicast_sent", count(sum.macUnicastSent)},
      {"mac.retries", count(sum.macRetries)},
      {"mac.queue_drops", count(sum.macQueueDrops)},
      {"probe.sent", count(sum.probesSent)},
      {"probe.bytes_rx", count(sum.probeBytesReceived)},
      {"probe.overhead_pct", 100.0 * ratio(count(sum.probeBytesReceived),
                                           count(sum.dataBytesReceived))},
      {"probe.pairs_completed", count(sum.pairsCompleted)},
      {"route.queries_forwarded", count(sum.queriesForwarded)},
      {"route.dup_queries_forwarded", count(sum.dupQueriesForwarded)},
      {"route.data_forwarded", count(sum.dataForwarded)},
      {"route.data_duplicates", count(sum.dataDuplicates)},
      {"app.packets_sent", sent},
      {"app.deliveries", delivered},
      {"harness.build_s", self("harness.build")},
      {"harness.adopt_s", self("harness.adopt")},
      {"harness.capture_s", self("harness.capture")},
      {"runner.runs", static_cast<double>(traced.records.size())},
      {"runner.runs_failed", failedRuns},
      {"runner.snapshots_built", built},
      {"runner.snapshots_reused", reused},
      {"runner.busy_ratio", busyRatio(total("runner.cell"), workload.options.jobs,
                                      total("runner.sweep"))},
      {"runner.sink_write_s", self("runner.sink_write")},
      {"runner.snapshot_wait_s", self("runner.snapshot_wait")},
      {"fault.applied", count(sum.faultsApplied)},
      {"fault.cleared", count(sum.faultsCleared)},
      {"fault.repairs_observed", repairs},
      {"channelplan.assign_s", self("channelplan.assign")},
      {"channelplan.frame_imbalance", frameImbalance(domainFrames)},
      {"gateway.select_s", self("gateway.select")},
      {"gateway.handoff_frames", count(sum.handoffFrames)},
  };
}

std::vector<Metric> perLayerMetrics(const Workload& workload,
                                    const std::vector<Round>& rounds) {
  std::map<std::string, std::vector<double>> series;
  std::vector<double> tracedWall, untracedWall;
  for (const Round& round : rounds) {
    (round.traced ? tracedWall : untracedWall).push_back(round.wallS);
    if (!round.traced) continue;
    for (const auto& [name, value] : layerValues(workload, round)) {
      series[name].push_back(value);
    }
  }
  const double untraced = median(untracedWall);
  series["bench.span_overhead_pct"].push_back(
      untraced > 0.0 ? 100.0 * (median(tracedWall) - untraced) / untraced : 0.0);
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : perLayerUnits()) {
    metrics.push_back({name, median(series[name]), unit});
  }
  return metrics;
}

std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace e2e
