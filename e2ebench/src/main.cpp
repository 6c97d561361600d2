// End-to-end sweep benchmark: the e2ebench program.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Runs whole rounds of one workload's comparison sweep for about
// `--seconds` seconds, checks every run's outputs, and prints one JSON
// result line last: the end-to-end metrics with --trace 0, the per-layer
// metrics (from rounds traced with in-memory spans, alternated with
// untraced rounds) with --trace 1. See README.md in this directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "checks.hpp"
#include "mesh/runner/result_sink.hpp"
#include "report.hpp"
#include "rounds.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string outDir{".bench_build/e2ebench/out"};
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      haveSeed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      haveSeconds = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      haveTrace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args.outDir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !haveSeed || !haveSeconds || !haveTrace) {
    usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  }
  return args;
}

// Any MESH_* variable silently changes the simulated world or the sweep
// (channel count, domain workers, gateways, rate control, snapshot cache,
// spatial index, packet pool, MESH_BENCH_* sweep knobs), so none may be set.
bool environmentClean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "MESH_", 5) == 0) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n", *env);
      clean = false;
    }
  }
  return clean;
}

bool optimisedBuild() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::strstr(E2E_CXX_FLAGS, "-fsanitize") == nullptr;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (!environmentClean()) return 2;
  if (!optimisedBuild()) {
    std::fprintf(stderr,
                 "e2ebench: refusing an unoptimised or sanitizer build "
                 "(build type %s, flags '%s')\n",
                 E2E_BUILD_TYPE, E2E_CXX_FLAGS);
    return 2;
  }

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  e2e::Workload workload;
  try {
    workload = e2e::makeWorkload(args.workload, args.seed, nproc);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  std::filesystem::create_directories(args.outDir);
  const std::string stem = args.outDir + "/" + workload.name + ".seed" +
                           std::to_string(args.seed) +
                           (args.trace ? ".traced" : "");
  mesh::runner::JsonlResultSink sink{stem + ".runs.jsonl"};

  // Whole rounds (untraced, or an untraced + traced pair) until the next
  // one would overrun the budget; at least two rounds either way, so the
  // determinism check always compares two sweeps.
  std::vector<e2e::Round> rounds;
  // Peak RSS is read after the first sweep: what one sweep process holds.
  // Later rounds only add allocator fragmentation from fresh pool threads.
  double peakRss = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t step = 1;; ++step) {
    rounds.push_back(e2e::runUntracedRound(workload, &sink));
    if (step == 1) peakRss = e2e::peakRssMiB();
    if (args.trace) rounds.push_back(e2e::runTracedRound(workload, &sink));
    for (std::size_t r = rounds.size() - (args.trace ? 2 : 1); r < rounds.size(); ++r) {
      std::fprintf(stderr, "e2ebench: round %zu%s: %.3f s wall, %.3f s cpu\n", r,
                   rounds[r].traced ? " (traced)" : "", rounds[r].wallS,
                   rounds[r].cpuS);
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (rounds.size() >= 2 &&
        elapsed + elapsed / static_cast<double>(step) > args.seconds) {
      break;
    }
  }

  // Output checks: every run against the workload's inputs, every
  // repetition against the first, layer counters on traced rounds.
  e2e::Failures failures;
  std::uint64_t attempted = 0, failed = 0;
  const e2e::Round& reference = rounds.front();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const e2e::Round& round = rounds[r];
    for (std::size_t i = 0; i < round.records.size(); ++i) {
      const auto& record = round.records[i];
      ++attempted;
      if (!record.ok) {
        ++failed;
        std::fprintf(stderr, "e2ebench: run failed (topology %zu, %s): %s\n",
                     record.topologyIndex, record.protocolName.c_str(),
                     record.error.c_str());
        continue;
      }
      const std::string cell = "round " + std::to_string(r) + " topology " +
                               std::to_string(record.topologyIndex) + " " +
                               record.protocolName;
      const auto& config = workload.scenarios[record.topologyIndex];
      e2e::checkResults(cell, config, record.results, workload.expectHandoff,
                        failures);
      if (round.traced) {
        e2e::checkLayers(cell, round.layers[i], record.results,
                         config.gateways > 0, failures);
      }
      const auto& first = reference.records.at(i);
      if (first.ok && !e2e::sameResults(first.results, record.results)) {
        failures.push_back(cell + ": results differ from round 0");
      }
    }
  }
  if (workload.expectSppOverOdmrp) {
    for (const std::size_t topology :
         e2e::checkSppOverOdmrp(reference.records, failures)) {
      std::fprintf(stderr, "e2ebench: note: SPP pdr not above ODMRP on topology %zu\n",
                   topology);
    }
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", failure.c_str());
  }

  std::vector<std::vector<e2e::Span>> spans;
  for (const e2e::Round& round : rounds) {
    if (round.traced) spans.push_back(round.spans);
  }
  std::string spansPath;
  if (args.trace) {
    spansPath = stem + ".spans.jsonl";
    if (!e2e::writeSpansJsonl(spansPath, spans)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", spansPath.c_str());
      return 1;
    }
  }

  const std::vector<e2e::Metric> metrics =
      args.trace ? e2e::perLayerMetrics(workload, rounds)
                 : e2e::endToEndMetrics(workload, rounds, peakRss);

  // Run record, then the result line (always last). The record carries
  // the quartiles of the untraced rounds' sweep wall: the run's own noise.
  std::vector<double> roundWalls;
  for (const e2e::Round& round : rounds) {
    if (!round.traced) roundWalls.push_back(round.wallS);
  }
  const e2e::Quartiles wallQ = e2e::quartiles(roundWalls);
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %zu, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"jobs\": %zu, "
      "\"threads\": %zu, \"rounds\": %zu, \"topology_seed\": %llu, "
      "\"round_wall_s\": [%.6f, %.6f, %.6f], \"attempted\": %llu, "
      "\"failed\": %llu, \"spans\": \"%s\"}}\n",
      workload.name.c_str(), static_cast<unsigned long long>(args.seed), nproc,
      E2E_BUILD_TYPE, E2E_COMPILER, workload.options.jobs, workload.threads(),
      rounds.size(), static_cast<unsigned long long>(workload.options.baseSeed),
      wallQ.q1, wallQ.q2, wallQ.q3, static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), spansPath.c_str());
  std::printf("%s\n",
              e2e::resultLine(failures.empty(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
