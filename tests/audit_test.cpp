// Tests for the WSN_AUDIT invariant layer. Compiles in both build modes:
// audit builds prove checks run and catch violations; plain builds prove
// the macros cost nothing.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "diffusion/messages.hpp"
#include "mac/energy.hpp"
#include "mac/params.hpp"
#include "protocol_rig.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"

namespace wsn {
namespace {

using sim::EventQueue;
using sim::Time;

/// Dispatches every pending event, whatever its time.
void drain(EventQueue& q) {
  Time now;
  while (q.run_next(Time::max(), now)) {
  }
}

#if WSN_AUDIT_ENABLED

TEST(Audit, ChecksRunDuringEventQueuePops) {
  const std::uint64_t before = sim::audit::checks_performed();
  EventQueue q;
  q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(2), [] {});
  drain(q);
  EXPECT_GT(sim::audit::checks_performed(), before);
}

TEST(Audit, CancellationEdgesRaiseNoViolations) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  EventQueue q;
  EventQueue::Node timer{[] {}};
  q.disarm(timer);  // never armed
  q.arm(timer, Time::millis(1));
  drain(q);
  q.disarm(timer);  // cancel-after-fire
  q.arm(timer, Time::millis(2));
  q.arm(timer, Time::millis(3));  // re-arm while linked
  q.disarm(timer);
  q.disarm(timer);  // double-cancel
  q.schedule(Time::millis(4), [] {});
  q.clear();
  EXPECT_EQ(sim::audit::violations(), 0u);
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, ScheduleBeforeLastPopIsCaught) {
  // The radix heap is monotone: a key below the last dispatched one would
  // share a bucket with keys above it. The precondition is checked when
  // the key goes in, by a one-shot schedule and by a timer arm alike.
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  EventQueue q;
  q.schedule(Time::millis(5), [] {});
  drain(q);
  EXPECT_EQ(sim::audit::violations(), 0u);
  q.schedule(Time::millis(4), [] {});
  EXPECT_EQ(sim::audit::violations(), 1u);
  EventQueue::Node timer_node;
  q.arm(timer_node, Time::millis(3));
  EXPECT_EQ(sim::audit::violations(), 2u);
  q.disarm(timer_node);
  // clear() resets the watermark: earlier times are legal again.
  q.clear();
  sim::audit::reset_violations();
  q.schedule(Time::millis(1), [] {});
  drain(q);
  EXPECT_EQ(sim::audit::violations(), 0u);
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, EnergyTimeReversalIsCaught) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::seconds(2.0), mac::RadioState::kTx);
  (void)meter.joules(Time::seconds(1.0), 0);  // read before the transition
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  meter.set_state(Time::seconds(1.0), mac::RadioState::kIdle);  // backwards
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, ReceiveChargeOutsideIdleTimeIsCaught) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::seconds(1.0), mac::RadioState::kTx);
  meter.set_state(Time::seconds(2.0), mac::RadioState::kIdle);
  const Time now = Time::seconds(3.0);
  // Two seconds alive and not transmitting: more receive time than that,
  // or less than none, is a broken charge.
  (void)meter.joules(now, Time::seconds(2.5).as_nanos());
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  (void)meter.active_joules(now, -1);
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  meter.set_state(now, mac::RadioState::kRx);  // Rx is not a meter state
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, MonotoneEnergyAccumulationIsClean) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  mac::RxCharge rx;
  rx.arrive(Time::zero(), Time::seconds(0.5));
  meter.set_state(Time::zero(), mac::RadioState::kTx);  // Tx over the arrival
  rx.begin_tx(Time::zero(), Time::seconds(1.5));
  (void)meter.joules(Time::seconds(1.0), rx.ns_at(Time::seconds(1.0)));
  meter.set_state(Time::seconds(1.5), mac::RadioState::kIdle);
  rx.arrive(Time::seconds(2.0), Time::seconds(4.0));
  const Time end = Time::seconds(3.0);  // mid-arrival
  EXPECT_EQ(rx.ns_at(end), Time::seconds(1.0).as_nanos());
  EXPECT_EQ(meter.residence_ns(mac::RadioState::kIdle, end, rx.ns_at(end)),
            Time::seconds(0.5).as_nanos());
  EXPECT_GE(meter.joules(end, rx.ns_at(end)),
            meter.active_joules(end, rx.ns_at(end)));
  EXPECT_EQ(sim::audit::violations(), 0u);
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, MakeSinkAfterStartIsCaught) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  {
    testing::ProtocolRig rig{{{0.0, 0.0}}, core::Algorithm::kGreedy};
    rig.node(0).make_sink(rig.whole_field());  // the documented order
    rig.start_all();
    EXPECT_EQ(sim::audit::violations(), 0u);
  }
  testing::ProtocolRig rig{{{0.0, 0.0}}, core::Algorithm::kGreedy};
  rig.start_all();
  rig.node(0).make_sink(rig.whole_field());  // too late: no repair tick
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, MismatchedSenderSlotIsCaught) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  // Node 1 hears 0 and 2, so its neighbour slots are {0: node 0, 1: node 2}.
  testing::ProtocolRig rig{{{0.0, 0.0}, {30.0, 0.0}, {60.0, 0.0}},
                           core::Algorithm::kGreedy};
  const auto interest_from_2 = [] {
    auto msg = std::make_shared<diffusion::InterestMsg>();
    msg->sink = 2;
    msg->round = 1;
    net::Frame f;
    f.src = 2;
    f.dst = net::kBroadcast;
    f.payload = std::move(msg);
    return f;
  };
  rig.node(1).mac_receive(interest_from_2(), rig.slot(1, 2));
  EXPECT_EQ(sim::audit::violations(), 0u);
  rig.node(1).mac_receive(interest_from_2(), rig.slot(1, 0));  // names node 0
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  sim::audit::set_abort_on_violation(true);
}

#else  // !WSN_AUDIT_ENABLED

TEST(Audit, DisabledBuildPerformsNoChecks) {
  EventQueue q;
  q.schedule(Time::millis(1), [] {});
  drain(q);
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::seconds(1.0), mac::RadioState::kTx);
  // Every call below would violate in an audit build.
  (void)meter.joules(Time::zero(), 0);
  (void)meter.joules(Time::seconds(2.0), -1);
  meter.set_state(Time::zero(), mac::RadioState::kRx);
  EXPECT_EQ(sim::audit::checks_performed(), 0u);
  EXPECT_EQ(sim::audit::violations(), 0u);
}

#endif  // WSN_AUDIT_ENABLED

}  // namespace
}  // namespace wsn
