#include "mesh/channelplan/domain_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "mesh/common/assert.hpp"

namespace mesh::channelplan {

DomainScheduler::DomainScheduler(std::vector<sim::Simulator*> domains,
                                 std::size_t workers)
    : domains_{std::move(domains)} {
  MESH_REQUIRE(!domains_.empty());
  for (sim::Simulator* d : domains_) MESH_REQUIRE(d != nullptr);
  workers_ = std::clamp<std::size_t>(workers, 1, domains_.size());
}

void DomainScheduler::addBarrier(SimTime at, std::function<void()> callback) {
  MESH_REQUIRE(callback != nullptr);
  Barrier barrier{at, std::move(callback)};
  // Stable position: after every earlier-or-equal barrier, so callbacks at
  // one instant fire in registration order.
  const auto pos = std::upper_bound(
      barriers_.begin(), barriers_.end(), barrier,
      [](const Barrier& a, const Barrier& b) { return a.at < b.at; });
  barriers_.insert(pos, std::move(barrier));
}

std::uint64_t DomainScheduler::runEpoch(SimTime horizon) {
  ++epochsRun_;
  if (workers_ == 1 || domains_.size() == 1) {
    // Sequential reference order: ascending domain index. The parallel
    // path below must be indistinguishable from this one.
    std::uint64_t executed = 0;
    for (sim::Simulator* domain : domains_) executed += domain->run(horizon);
    return executed;
  }
  // Work-claiming: each worker pops the next unclaimed domain index. The
  // claim order is nondeterministic, but each domain is driven by exactly
  // one thread and domains share no state inside an epoch, so the events
  // each domain executes — and their per-domain order — do not depend on
  // the claiming. Per-worker event counts fold into one atomic total
  // (commutative), and the threads join before anything reads domain
  // state, so the epoch is a clean fork/join. A domain that throws is
  // rethrown on the caller's thread after the join, as on the sequential
  // path.
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> executed{0};
  std::mutex errorMutex;
  std::exception_ptr error;  // first domain failure of the epoch
  const auto worker = [&] {
    std::uint64_t local = 0;
    try {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= domains_.size()) break;
        local += domains_[i]->run(horizon);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock{errorMutex};
      if (!error) error = std::current_exception();
    }
    executed.fetch_add(local, std::memory_order_relaxed);
  };
  std::vector<std::thread> threads;
  threads.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return executed.load(std::memory_order_relaxed);
}

std::uint64_t DomainScheduler::run(SimTime until) {
  std::uint64_t executed = 0;
  for (const Barrier& barrier : barriers_) {
    if (barrier.at > until) break;
    executed += runEpoch(barrier.at);
    // All domain clocks now sit exactly at barrier.at (Simulator::run
    // advances the clock to the horizon even when the queue ran dry), so
    // the callback sees a globally consistent instant.
    barrier.callback();
  }
  executed += runEpoch(until);
  return executed;
}

}  // namespace mesh::channelplan
