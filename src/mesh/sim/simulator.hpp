#pragma once
// The discrete-event simulator core (our Glomosim replacement).
//
// A Simulator owns the virtual clock and the pending-event set. Components
// schedule callbacks relative to `now()`; `run()` drains events in
// timestamp order until the horizon, the event set empties, or `stop()`.
//
// The simulator is an explicit object — never a global — so tests and the
// harness can run many independent simulations in one process (the Figure 2
// benches run 60+ back-to-back simulations).

#include <cstdint>
#include <functional>
#include <utility>

#include "mesh/common/assert.hpp"
#include "mesh/common/log.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/sim/event_queue.hpp"

namespace mesh::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule `cb` to run `delay` after now. Negative delays are clamped to
  // zero (fire "immediately", still in deterministic order). Forwarded
  // straight into the event slot: the capture is constructed exactly once.
  template <typename F>
  EventId schedule(SimTime delay, F&& cb) {
    if (delay.isNegative()) delay = SimTime::zero();
    return queue_.push(now_ + delay, std::forward<F>(cb));
  }

  // Schedule at an absolute time (must not be in the past).
  template <typename F>
  EventId scheduleAt(SimTime when, F&& cb) {
    MESH_REQUIRE(when >= now_);
    return queue_.push(when, std::forward<F>(cb));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  // --- reserved order (DESIGN §8.1) ---------------------------------------
  //
  // A producer of many future events (a transmission's receptions) can
  // fix their pop order now and keep them out of the heap: reserveOrder(n)
  // takes the n seqs that n schedule() calls would have taken, and each
  // entry is later either pushed with scheduleReservedAt or run inline.

  std::uint64_t reserveOrder(std::uint64_t n = 1) {
    return queue_.reserveSeqs(n);
  }

  template <typename F>
  EventId scheduleReservedAt(SimTime when, std::uint64_t seq, F&& cb) {
    MESH_REQUIRE(when >= now_);
    return queue_.pushReserved(when, seq, std::forward<F>(cb));
  }

  // Called from inside a running event: true when the entry at (time,
  // seq) is exactly the event run() would execute next — the loop is
  // running and not stopped, `time` is within the run's horizon, and the
  // entry precedes every pending event. The clock then advances to `time`
  // and the entry counts as executed; the caller runs it at once, without
  // a heap round trip. False: the caller pushes it with scheduleReservedAt.
  bool runInline(SimTime time, std::uint64_t seq) {
    if (!running_ || time > until_ || !queue_.precedesAll(time, seq)) {
      return false;
    }
    MESH_ASSERT(time >= now_);
    now_ = time;
    ++eventsExecuted_;
    return true;
  }

  // Bracketing hooks around every run(): `enter` fires before the first
  // event, `leave` after the loop exits (including stop()/horizon exits).
  // The harness uses this to install the owning Simulation's PacketPool as
  // the thread's active pool while — and only while — its events execute,
  // which is what keeps pools domain-confined under the DomainScheduler's
  // worker threads.
  void setRunScope(std::function<void()> enter, std::function<void()> leave) {
    runEnter_ = std::move(enter);
    runLeave_ = std::move(leave);
  }

  // Run until the event set drains or the clock would pass `until`.
  // Events scheduled exactly at `until` still fire. Returns the number of
  // events executed, inline entries (runInline) included.
  std::uint64_t run(SimTime until = SimTime::max()) {
    log::setTimeSource([this] { return now_; });
    if (runEnter_) runEnter_();
    running_ = true;
    until_ = until;
    const std::uint64_t executedBefore = eventsExecuted_;
    while (running_ && !queue_.empty()) {
      const bool ran = queue_.runEarliest(until, [this](SimTime time) {
        MESH_ASSERT(time >= now_);
        now_ = time;
        ++eventsExecuted_;
      });
      if (!ran) break;  // earliest event is past the horizon
    }
    // If we stopped on the horizon, advance the clock to it so that a
    // subsequent run() resumes from a well-defined instant.
    if (running_ && now_ < until && until != SimTime::max()) now_ = until;
    running_ = false;
    log::clearTimeSource();
    if (runLeave_) runLeave_();
    return eventsExecuted_ - executedBefore;
  }

  // Stop the run loop after the current event returns.
  void stop() { running_ = false; }

  bool hasPendingEvents() const { return !queue_.empty(); }
  // Heap entries: a producer of reserved entries keeps only its next one
  // queued, so its later entries are not counted until pushed.
  std::size_t pendingEventCount() const { return queue_.size(); }
  std::uint64_t eventsExecuted() const { return eventsExecuted_; }

 private:
  EventQueue queue_;
  SimTime now_{SimTime::zero()};
  bool running_{false};
  SimTime until_{SimTime::max()};  // horizon of the run() in progress
  std::uint64_t eventsExecuted_{0};
  std::function<void()> runEnter_;
  std::function<void()> runLeave_;
};

}  // namespace mesh::sim
