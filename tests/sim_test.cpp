// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include <string>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace wsn::sim {
namespace {

/// Dispatches one event regardless of its time; false when empty.
bool run_one(EventQueue& q) {
  Time now;
  return q.run_next(Time::max(), now);
}

void drain(EventQueue& q) {
  while (run_one(q)) {
  }
}

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ(Time::seconds(1.5).as_nanos(), 1'500'000'000);
  EXPECT_EQ(Time::millis(2).as_nanos(), 2'000'000);
  EXPECT_EQ(Time::micros(3).as_nanos(), 3'000);
  EXPECT_EQ((Time::seconds(1.0) + Time::millis(500)).as_seconds(), 1.5);
  EXPECT_EQ((Time::seconds(2.0) - Time::seconds(0.5)).as_seconds(), 1.5);
  EXPECT_EQ(Time::millis(100) * 3, Time::millis(300));
  EXPECT_EQ(Time::seconds(1.0).scaled(0.25), Time::millis(250));
  EXPECT_LT(Time::zero(), Time::nanos(1));
  EXPECT_EQ(Time::max().as_nanos(), std::numeric_limits<std::int64_t>::max());
}

TEST(Time, ToString) {
  EXPECT_EQ(Time::seconds(1.25).to_string(), "1.250000s");
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::millis(30), [&] { order.push_back(3); });
  q.schedule(Time::millis(10), [&] { order.push_back(1); });
  q.schedule(Time::millis(20), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::millis(5), [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventQueue::Node timer{[&] { fired = true; }};
  q.arm(timer, Time::millis(1));
  EXPECT_TRUE(timer.linked());
  q.disarm(timer);
  EXPECT_FALSE(timer.linked());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(run_one(q));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnFired) {
  EventQueue q;
  EventQueue::Node timer{[] {}};
  EventQueue::Node never_armed;
  q.disarm(never_armed);  // unlinked from the start: a no-op
  q.arm(timer, Time::millis(1));
  q.disarm(timer);
  q.disarm(timer);  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  q.arm(timer, Time::millis(2));
  q.schedule(Time::millis(3), [] {});
  EXPECT_TRUE(run_one(q));
  EXPECT_FALSE(timer.linked());  // a fired timer is unlinked
  q.disarm(timer);               // already fired
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelAfterFireIsSafeAcrossReuse) {
  // A timer node whose expiry already fired stays unlinked: cancelling it
  // is a no-op and never affects later events, and re-arming reuses it.
  EventQueue q;
  int fired = 0;
  EventQueue::Node timer{[&] { ++fired; }};
  q.arm(timer, Time::millis(1));
  EXPECT_TRUE(run_one(q));
  q.disarm(timer);
  q.disarm(timer);  // double-cancel after fire

  q.schedule(Time::millis(2), [&] { ++fired; });
  q.disarm(timer);  // cannot hit the pending one-shot
  EXPECT_EQ(q.size(), 1u);
  q.arm(timer, Time::millis(3));
  EXPECT_TRUE(run_one(q));
  EXPECT_TRUE(run_one(q));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelThenScheduleKeepsQueueConsistent) {
  EventQueue q;
  EventQueue::Node late{[] {}};
  EventQueue::Node early{[] {}};
  q.arm(late, Time::millis(3));
  q.disarm(late);
  q.disarm(late);
  q.arm(early, Time::millis(1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), Time::millis(1));
  q.disarm(early);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventQueue::Node timer{[] {}};
  q.arm(timer, Time::millis(1));
  q.schedule(Time::millis(5), [] {});
  q.disarm(timer);
  EXPECT_EQ(q.next_time(), Time::millis(5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearEmptiesEverything) {
  EventQueue q;
  q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_in(Time::seconds(1.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::seconds(1.0));
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::seconds(1.0), [&] { ++fired; });
  sim.schedule_in(Time::seconds(3.0), [&] { ++fired; });
  sim.run_until(Time::seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::seconds(2.0));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(Time::millis(1), recurse);
  };
  sim.schedule_in(Time::millis(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), Time::millis(5));
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator sim;
  sim.schedule_in(Time::seconds(1.0), [] {});
  sim.run();
  Time seen = Time::zero();
  sim.schedule_at(Time::millis(1), [&] { seen = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(seen, Time::seconds(1.0));
}

TEST(Timer, ArmFiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.arm(Time::millis(10));
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPrevious) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.arm(Time::millis(10));
  t.arm(Time::millis(20));  // replaces
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(Timer, ArmIfIdleKeepsEarlierDeadline) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.arm(Time::millis(10));
  t.arm_if_idle(Time::millis(50));  // ignored: already armed
  sim.run();
  EXPECT_EQ(sim.now(), Time::millis(10));
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelPreventsExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.arm(Time::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmFromCallbackWorks) {
  Simulator sim;
  int fired = 0;
  Timer* tp = nullptr;
  Timer t{sim, [&] {
            if (++fired < 3) tp->arm(Time::millis(5));
          }};
  tp = &t;
  t.arm(Time::millis(5));
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), Time::millis(15));
}

TEST(Timer, DestroyedWhileArmedNeverFires) {
  // The queue links the Timer's own node, so ~Timer's unlink is all that
  // keeps the queue from touching a dead Timer (ASan reports the
  // use-after-free if it ever does), also when the node is the earliest.
  Simulator sim;
  int doomed_fired = 0;
  int survivor_fired = 0;
  auto doomed = std::make_unique<Timer>(sim, [&] { ++doomed_fired; });
  Timer survivor{sim, [&] { ++survivor_fired; }};
  doomed->arm(Time::millis(10));
  survivor.arm(Time::millis(20));
  // A run that stops short looks at the earliest node but leaves it linked.
  EXPECT_EQ(sim.run_until(Time::zero()), 0u);
  EXPECT_EQ(sim.events_pending(), 2u);
  doomed.reset();
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(doomed_fired, 0);
  EXPECT_EQ(survivor_fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng parent{7};
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(1);
  Rng c1_again = parent.fork(0);
  EXPECT_EQ(c1.next(), c1_again.next());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next() == c2.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBounds) {
  Rng r{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r{11};
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) ++counts[static_cast<std::size_t>(r.uniform_int(0, 5))];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, JitterWithinBound) {
  Rng r{9};
  for (int i = 0; i < 1000; ++i) {
    const Time j = r.jitter(Time::millis(10));
    EXPECT_GE(j, Time::zero());
    EXPECT_LT(j, Time::millis(10));
  }
  EXPECT_EQ(r.jitter(Time::zero()), Time::zero());
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r{13};
  auto s = r.sample_indices(100, 20);
  ASSERT_EQ(s.size(), 20u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r{17};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// Pinned streams: these exact values are part of the reproducibility
// contract. A refactor that changes them silently invalidates every seeded
// experiment, so any intentional change must bump seeds project-wide and
// update these constants deliberately.
TEST(Rng, RawStreamIsPinned) {
  Rng r{0x5EEDF00DULL};
  EXPECT_EQ(r.next(), 0x7c873a5e096e5982ULL);
  EXPECT_EQ(r.next(), 0xafa8a941fb322560ULL);
  EXPECT_EQ(r.next(), 0x901e1d55271b5116ULL);
  EXPECT_EQ(r.next(), 0xc0402398799c6825ULL);
}

TEST(Rng, FisherYatesShuffleOrderIsPinned) {
  Rng r{0x5EEDF00DULL};
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  r.shuffle(v);
  EXPECT_EQ(v, (std::vector<int>{7, 0, 3, 5, 9, 1, 2, 8, 6, 4}));
}

TEST(Rng, SampleIndicesOrderIsPinned) {
  Rng r{0x5EEDF00DULL};
  EXPECT_EQ(r.sample_indices(10, 4),
            (std::vector<std::size_t>{4, 7, 8, 5}));
}

TEST(Rng, UniformIntSequenceIsPinned) {
  Rng r{123};
  const std::vector<std::int64_t> expect{97, 98, 67, 30, 94, 54};
  for (std::int64_t e : expect) EXPECT_EQ(r.uniform_int(0, 99), e);
}

// Property: a random schedule pops back in nondecreasing time order even
// with interleaved cancellations.
class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueProperty, RandomScheduleIsOrdered) {
  Rng rng{GetParam()};
  EventQueue q;
  // Every third event is a timer node, armed and then cancelled.
  std::vector<std::unique_ptr<EventQueue::Node>> timers;
  for (int i = 0; i < 500; ++i) {
    const Time at = Time::nanos(rng.uniform_int(0, 1000));
    if (i % 3 == 0) {
      timers.push_back(std::make_unique<EventQueue::Node>([] {}));
      q.arm(*timers.back(), at);
    } else {
      q.schedule(at, [] {});
    }
  }
  for (auto& timer : timers) q.disarm(*timer);
  const std::size_t cancelled = timers.size();
  EXPECT_EQ(q.size(), 500 - cancelled);
  Time last = Time::zero();
  std::size_t popped = 0;
  Time at;
  while (q.run_next(Time::max(), at)) {
    EXPECT_GE(at, last);
    last = at;
    ++popped;
  }
  EXPECT_EQ(popped, 500 - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

}  // namespace
}  // namespace wsn::sim
