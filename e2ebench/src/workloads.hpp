#pragma once
// The four benchmark workloads and the seeded generation of their inputs.
//
// Every input the simulator sees — topology seeds, multicast groups, the
// churn fault timeline — is drawn here from the workload seed given on the
// command line. The simulator receives only the finished ScenarioConfigs,
// through the runner's sweep API.

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"

namespace e2e {

struct Workload {
  std::string name;
  std::uint64_t seed{0};
  std::vector<mesh::harness::ProtocolSpec> protocols;
  // Sweep options handed to the runner: topology count, first topology
  // seed (topology t uses baseSeed + t), duration, jobs, snapshot cache.
  mesh::harness::BenchOptions options;
  // The generated scenario of each topology, seed and protocol-independent
  // fields filled in; the runner stamps the protocol onto a copy per cell.
  std::vector<mesh::harness::ScenarioConfig> scenarios;

  // Output checks that only apply to some workloads.
  bool expectHandoff{false};      // gateways must carry frames
  bool expectSppOverOdmrp{false}; // the paper's headline PDR ordering

  // Worker threads the workload may run at once: runner jobs x domain
  // workers.
  std::size_t threads() const;
  // The runner's scenario factory: returns the pre-generated scenario of
  // `topologySeed`. Throws on a seed the workload did not generate.
  mesh::harness::ScenarioConfig scenarioFor(std::uint64_t topologySeed) const;
};

const std::vector<std::string>& workloadNames();

// Builds workload `name` from `seed`, capping runner jobs and domain
// workers so their product never exceeds `nproc`. Throws
// std::invalid_argument on an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t nproc);

// The churn-50 fault timeline: node crashes and interference bursts as
// Poisson arrivals (`perMinute` each) over [warmup, duration), victims
// drawn from the nodes that are neither sources nor members.
mesh::fault::FaultSchedule makeChurnTimeline(
    const mesh::harness::ScenarioConfig& scenario, double perMinute,
    mesh::SimTime warmup, mesh::Rng rng);

}  // namespace e2e
