// Unit tests for the discrete-event engine: EventQueue, Simulator, Timer.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mesh/sim/event_queue.hpp"
#include "mesh/sim/small_callback.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/sim/timer.hpp"

namespace mesh::sim {
namespace {

using namespace mesh::time_literals;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3_s, [&] { order.push_back(3); });
  q.push(1_s, [&] { order.push_back(1); });
  q.push(2_s, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5_s, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.push(1_s, [&] { ++fired; });
  const EventId id = q.push(2_s, [&] { fired += 10; });
  q.push(3_s, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelNullHandle) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.cancel(id);
  EXPECT_EQ(q.nextTime(), 2_s);
}

// Regression: the lazy-cancel design recorded a cancel of an already-fired
// event forever (unbounded cancelled-set growth) and decremented live_,
// corrupting empty()/size(). Generation-tagged ids must reject fired
// handles outright.
TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.pop().callback();  // fires the 1_s event
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);  // bookkeeping intact
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // still rejected on an empty queue
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  const EventId stale = q.push(1_s, [] {});
  q.pop();  // slot returns to the free list
  int fired = 0;
  q.push(1_s, [&] { ++fired; });  // reuses the slot, new generation
  EXPECT_FALSE(q.cancel(stale));
  q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledHandleStaysDeadAfterSlotReuse) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  int fired = 0;
  q.push(1_s, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MoveOnlyCapture) {
  EventQueue q;
  auto box = std::make_unique<int>(41);
  int seen = 0;
  q.push(1_s, [box = std::move(box), &seen] { seen = *box + 1; });
  q.pop().callback();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ------------------------------------------------- reserved seqs (§8.1)

// Pops and runs every event.
void drain(EventQueue& q) {
  while (!q.empty()) q.pop().callback();
}

TEST(EventQueueReserved, EqualTimeTiesPopInReservationOrder) {
  // Reference: six individual pushes at one instant.
  std::vector<int> want;
  {
    EventQueue q;
    for (int i = 0; i < 6; ++i) q.push(5_s, [&want, i] { want.push_back(i); });
    drain(q);
  }
  // One ordinary push, four reserved seqs pushed in reverse, one more
  // ordinary push: the reserved entries pop in seq order, between the two.
  std::vector<int> got;
  EventQueue q;
  q.push(5_s, [&got] { got.push_back(0); });
  const std::uint64_t first = q.reserveSeqs(4);
  q.push(5_s, [&got] { got.push_back(5); });
  for (int i = 3; i >= 0; --i) {
    q.pushReserved(5_s, first + static_cast<std::uint64_t>(i),
                   [&got, i] { got.push_back(i + 1); });
  }
  drain(q);
  EXPECT_EQ(got, want);
}

TEST(EventQueueReserved, InterleavesWithOrdinaryEventsAsIndividualPushes) {
  const std::array<SimTime, 3> batch{3_s, 5_s, 3_s};
  std::vector<int> want;
  {
    EventQueue q;
    q.push(5_s, [&want] { want.push_back(10); });
    for (int i = 0; i < 3; ++i) {
      q.push(batch[static_cast<std::size_t>(i)],
             [&want, i] { want.push_back(i); });
    }
    q.push(3_s, [&want] { want.push_back(11); });
    q.push(4_s, [&want] { want.push_back(12); });
    drain(q);
  }
  std::vector<int> got;
  EventQueue q;
  q.push(5_s, [&got] { got.push_back(10); });
  const std::uint64_t first = q.reserveSeqs(3);
  q.push(3_s, [&got] { got.push_back(11); });
  // Released late and out of order, around a later ordinary push.
  q.pushReserved(batch[2], first + 2, [&got] { got.push_back(2); });
  q.push(4_s, [&got] { got.push_back(12); });
  q.pushReserved(batch[0], first, [&got] { got.push_back(0); });
  q.pushReserved(batch[1], first + 1, [&got] { got.push_back(1); });
  drain(q);
  EXPECT_EQ(got, want);
  EXPECT_EQ(want, (std::vector<int>{0, 2, 11, 12, 10, 1}));
}

TEST(EventQueueReserved, PrecedesAllLooksPastACancelledHead) {
  EventQueue q;
  const EventId head = q.push(1_s, [] {});
  q.push(5_s, [] {});
  const std::uint64_t seq = q.reserveSeqs(1);
  EXPECT_FALSE(q.precedesAll(3_s, seq));  // the live root is still 1 s
  EXPECT_TRUE(q.cancel(head));
  // The tombstone at the root no longer counts...
  EXPECT_TRUE(q.precedesAll(3_s, seq));
  // ...but the live 5 s event does, and it took the smaller seq.
  EXPECT_FALSE(q.precedesAll(5_s, seq));
  EXPECT_FALSE(q.precedesAll(6_s, seq));
  EXPECT_EQ(q.size(), 1u);
  std::vector<SimTime> popped;
  q.pushReserved(3_s, seq, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<SimTime>{3_s, 5_s}));
  EXPECT_TRUE(q.precedesAll(0_s, q.reserveSeqs(1)));  // empty queue
}

// ---------------------------------------------------------- SmallCallback

TEST(SmallCallback, InlineVsHeapStorageBySize) {
  // The hot-path captures must stay inline; oversized ones fall to heap.
  struct Fits {
    std::array<char, SmallCallback::kInlineBytes> pad;
    void operator()() const {}
  };
  struct Oversized {
    std::array<char, SmallCallback::kInlineBytes + 1> pad;
    void operator()() const {}
  };
  static_assert(SmallCallback::storedInline<Fits>());
  static_assert(!SmallCallback::storedInline<Oversized>());

  SmallCallback inlineCb{Fits{}};
  SmallCallback heapCb{Oversized{}};
  EXPECT_TRUE(static_cast<bool>(inlineCb));
  EXPECT_TRUE(static_cast<bool>(heapCb));
  inlineCb();
  heapCb();
}

TEST(SmallCallback, InvokesAndMoves) {
  int count = 0;
  SmallCallback a{[&count] { ++count; }};
  a();
  EXPECT_EQ(count, 1);
  SmallCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(count, 2);
  SmallCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(count, 3);
}

TEST(SmallCallback, MoveOnlyCaptureInlineAndHeap) {
  // unique_ptr capture: rejected by std::function, required here. Test
  // both storage classes so the heap manager's pointer-steal is covered.
  int seen = 0;
  SmallCallback small{[p = std::make_unique<int>(7), &seen] { seen = *p; }};
  SmallCallback moved{std::move(small)};
  moved();
  EXPECT_EQ(seen, 7);

  std::array<char, 64> pad{};
  pad[0] = 3;
  auto bigLambda = [p = std::make_unique<int>(4), pad, &seen] {
    seen = *p + pad[0];
  };
  static_assert(!SmallCallback::storedInline<decltype(bigLambda)>());
  SmallCallback big{std::move(bigLambda)};
  SmallCallback bigMoved{std::move(big)};
  bigMoved();
  EXPECT_EQ(seen, 7);
}

TEST(SmallCallback, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    SmallCallback cb{[counter] { }};
    EXPECT_EQ(counter.use_count(), 2);
    SmallCallback moved{std::move(cb)};
    EXPECT_EQ(counter.use_count(), 2);  // relocation, not duplication
  }
  EXPECT_EQ(counter.use_count(), 1);
}

// -------------------------------------------------------------- Simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  SimTime seen = SimTime::zero();
  s.schedule(5_s, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 5_s);
  EXPECT_EQ(s.now(), 5_s);
}

TEST(Simulator, RelativeSchedulingComposes) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.schedule(1_s, [&] {
    times.push_back(s.now().ns());
    s.schedule(2_s, [&] { times.push_back(s.now().ns()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1'000'000'000, 3'000'000'000}));
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.schedule(1_s, [&] { ++fired; });
  s.schedule(10_s, [&] { ++fired; });
  const auto executed = s.run(5_s);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_s);   // clock parked at horizon
  EXPECT_TRUE(s.hasPendingEvents());
  s.run();                   // resume
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 10_s);
}

TEST(Simulator, EventAtHorizonStillFires) {
  Simulator s;
  int fired = 0;
  s.schedule(5_s, [&] { ++fired; });
  s.run(5_s);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.schedule(1_s, [&] { ++fired; s.stop(); });
  s.schedule(2_s, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.hasPendingEvents());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule(1_s, [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  SimTime seen = SimTime::max();
  s.schedule(2_s, [&] {
    s.schedule(SimTime::seconds(-1.0), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 2_s);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(SimTime::milliseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.eventsExecuted(), 7u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two simulators fed identically must execute identically.
  auto trace = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.schedule(SimTime::milliseconds(i % 7), [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(trace(), trace());
}

// ------------------------------------------------------ runInline (§8.1)

// A batch of future entries released the way a channel flight releases its
// receptions: seqs reserved up front, the head pushed, every later entry
// run inline when the simulator allows it and pushed otherwise.
struct ReservedChain {
  Simulator& s;
  std::vector<SimTime> times;  // nondecreasing
  std::function<void(std::size_t)> body;
  std::uint64_t first{0};
  std::size_t next{0};
  std::size_t inlined{0};

  void start() {
    first = s.reserveOrder(times.size());
    queue();
  }
  void queue() {
    s.scheduleReservedAt(times[next], first + next, [this] { run(); });
  }
  void run() {
    for (;;) {
      body(next++);
      if (next == times.size()) return;
      if (!s.runInline(times[next], first + next)) {
        queue();
        return;
      }
      ++inlined;
    }
  }
};

// The same entries as individual schedules, each at its own seq.
void scheduleIndividually(Simulator& s, const std::vector<SimTime>& times,
                          const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < times.size(); ++i) {
    s.scheduleAt(times[i], [body, i] { body(i); });
  }
}

struct ChainWorld {
  Simulator s;
  std::vector<std::string> log;
  void note(const std::string& what) {
    log.push_back(what + "@" + std::to_string(s.now().ns()));
  }
};

// Entry bodies that interleave with the rest of the world: entry 2 adds a
// zero-delay event at its own instant and entry 4 one later on.
std::function<void(std::size_t)> chainBody(ChainWorld& w) {
  return [&w](std::size_t i) {
    w.note("e" + std::to_string(i));
    if (i == 2) w.s.schedule(SimTime::zero(), [&w] { w.note("z"); });
    if (i == 4) w.s.schedule(1_s, [&w] { w.note("late"); });
  };
}

const std::vector<SimTime> kChainTimes{1_s, 1_s, 2_s, 2_s, 2_s, 3_s, 5_s};

void seedNeighbours(ChainWorld& w) {
  w.s.schedule(2_s, [&w] { w.note("a"); });
}

TEST(SimulatorRunInline, ChainPopsExactlyAsIndividualEvents) {
  for (const SimTime horizon : {SimTime::max(), 2_s, 3_s}) {
    ChainWorld ref;
    seedNeighbours(ref);
    scheduleIndividually(ref.s, kChainTimes, chainBody(ref));
    ref.s.schedule(2_s, [&ref] { ref.note("b"); });
    const std::uint64_t refFirst = ref.s.run(horizon);
    const SimTime refStop = ref.s.now();
    const std::uint64_t refRest = ref.s.run();

    ChainWorld got;
    seedNeighbours(got);
    ReservedChain chain{got.s, kChainTimes, chainBody(got)};
    chain.start();
    got.s.schedule(2_s, [&got] { got.note("b"); });
    const std::uint64_t gotFirst = got.s.run(horizon);
    EXPECT_EQ(got.s.now(), refStop);
    const std::uint64_t gotRest = got.s.run();

    EXPECT_EQ(got.log, ref.log) << horizon.ns();
    EXPECT_EQ(gotFirst, refFirst) << horizon.ns();
    EXPECT_EQ(gotRest, refRest) << horizon.ns();
    EXPECT_EQ(got.s.eventsExecuted(), ref.s.eventsExecuted());
    EXPECT_GT(chain.inlined, 0u);
  }
}

TEST(SimulatorRunInline, RefusesPastTheHorizonAndResumesIdentically) {
  Simulator s;
  std::vector<SimTime> seen;
  ReservedChain chain{s, {1_s, 2_s, 3_s},
                      [&](std::size_t) { seen.push_back(s.now()); }};
  chain.start();
  EXPECT_EQ(s.run(2_s), 2u);  // 1 s popped, 2 s inline, 3 s refused
  EXPECT_EQ(chain.inlined, 1u);
  EXPECT_EQ(s.now(), 2_s);
  EXPECT_TRUE(s.hasPendingEvents());  // the refused entry was pushed
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(seen, (std::vector<SimTime>{1_s, 2_s, 3_s}));
  EXPECT_EQ(s.eventsExecuted(), 3u);
}

TEST(SimulatorRunInline, RefusesAfterStopAndResumesIdentically) {
  const auto runWorld = [](bool chained) {
    ChainWorld w;
    const auto body = [&w](std::size_t i) {
      w.note("e" + std::to_string(i));
      if (i == 1) w.s.stop();
    };
    ReservedChain chain{w.s, {1_s, 1_s, 1_s, 2_s}, body};
    if (chained) {
      chain.start();
    } else {
      scheduleIndividually(w.s, chain.times, body);
    }
    const std::uint64_t first = w.s.run();
    w.note("stopped");
    const std::uint64_t rest = w.s.run();
    return std::make_pair(w.log, std::make_pair(first, rest));
  };
  const auto ref = runWorld(false);
  const auto got = runWorld(true);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(ref.second.first, 2u);  // the stop lands after entry 1
}

TEST(SimulatorRunInline, RefusesOutsideRunAndBehindEarlierEvents) {
  Simulator s;
  const std::uint64_t seq = s.reserveOrder();
  EXPECT_FALSE(s.runInline(1_s, seq));  // not running
  bool checked = false;
  s.schedule(1_s, [&] {
    // A pending 2 s event precedes a 3 s entry; a 1.5 s entry goes first.
    EXPECT_FALSE(s.runInline(3_s, seq));
    EXPECT_EQ(s.now(), 1_s);  // a refusal leaves the clock alone
    EXPECT_TRUE(s.runInline(SimTime::milliseconds(1500), seq));
    EXPECT_EQ(s.now(), SimTime::milliseconds(1500));
    checked = true;
  });
  s.schedule(2_s, [] {});
  EXPECT_EQ(s.run(), 3u);  // two popped events and the inline entry
  EXPECT_TRUE(checked);
  EXPECT_EQ(s.eventsExecuted(), 3u);
}

TEST(SimulatorRunInline, EveryInlineEntryCountsAsExecuted) {
  Simulator s;
  std::vector<std::size_t> pendingSeen;
  ReservedChain chain{s, {1_s, 2_s, 3_s, 4_s, 5_s},
                      [&](std::size_t) {
                        pendingSeen.push_back(s.pendingEventCount());
                      }};
  chain.start();
  EXPECT_EQ(s.pendingEventCount(), 1u);  // one heap entry for five events
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(chain.inlined, 4u);
  EXPECT_EQ(s.eventsExecuted(), 5u);
  EXPECT_EQ(pendingSeen, (std::vector<std::size_t>(5, 0)));
  EXPECT_EQ(s.now(), 5_s);
}

// ------------------------------------------------------------------ Timer

TEST(Timer, FiresOnce) {
  Simulator s;
  Timer t{s};
  int fired = 0;
  t.start(1_s, [&] { ++fired; });
  EXPECT_TRUE(t.isRunning());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.isRunning());
}

TEST(Timer, RestartReplacesPrevious) {
  Simulator s;
  Timer t{s};
  int which = 0;
  t.start(1_s, [&] { which = 1; });
  t.start(2_s, [&] { which = 2; });
  s.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(s.now(), 2_s);
}

TEST(Timer, CancelPreventsFiring) {
  Simulator s;
  Timer t{s};
  int fired = 0;
  t.start(1_s, [&] { ++fired; });
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DestructionCancels) {
  Simulator s;
  int fired = 0;
  {
    Timer t{s};
    t.start(1_s, [&] { ++fired; });
  }
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RestartableFromInsideCallback) {
  Simulator s;
  Timer t{s};
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 3) t.start(1_s, tick);
  };
  t.start(1_s, tick);
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now(), 3_s);
}

TEST(Timer, RemainingAndExpiry) {
  Simulator s;
  Timer t{s};
  t.start(3_s, [] {});
  EXPECT_EQ(t.expiry(), 3_s);
  EXPECT_EQ(t.remaining(), 3_s);
  s.schedule(1_s, [&] { EXPECT_EQ(t.remaining(), 2_s); });
  s.run();
}

TEST(Timer, MoveTransfersOwnership) {
  Simulator s;
  int fired = 0;
  Timer a{s};
  a.start(1_s, [&] { ++fired; });
  Timer b{std::move(a)};
  EXPECT_TRUE(b.isRunning());
  s.run();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------- PeriodicTimer

TEST(PeriodicTimer, FixedPeriodFiresRepeatedly) {
  Simulator s;
  PeriodicTimer t{s};
  std::vector<std::int64_t> at;
  t.startFixed(500_ms, 1_s, [&] { at.push_back(s.now().ns()); });
  s.run(3_s);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 500'000'000);
  EXPECT_EQ(at[1], 1'500'000'000);
  EXPECT_EQ(at[2], 2'500'000'000);
}

TEST(PeriodicTimer, StopHaltsCycle) {
  Simulator s;
  PeriodicTimer t{s};
  int count = 0;
  t.startFixed(1_s, 1_s, [&] {
    if (++count == 2) t.stop();
  });
  s.run(10_s);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, CustomDelayFunction) {
  Simulator s;
  PeriodicTimer t{s};
  std::vector<std::int64_t> at;
  std::int64_t step = 0;
  t.start(
      [&]() -> SimTime {
        ++step;
        if (step > 3) return SimTime::seconds(std::int64_t{-1});  // stop
        return SimTime::seconds(step);  // 1s, 2s, 3s gaps
      },
      [&] { at.push_back(s.now().ns()); });
  s.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 1'000'000'000);
  EXPECT_EQ(at[1], 3'000'000'000);
  EXPECT_EQ(at[2], 6'000'000'000);
}

}  // namespace
}  // namespace mesh::sim
