// Tests for the WSN_AUDIT invariant layer. Compiles in both build modes:
// audit builds prove checks run and catch violations; plain builds prove
// the macros cost nothing.
#include <gtest/gtest.h>

#include "mac/energy.hpp"
#include "mac/params.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"

namespace wsn {
namespace {

using sim::EventQueue;
using sim::Time;

#if WSN_AUDIT_ENABLED

TEST(Audit, ChecksRunDuringEventQueuePops) {
  const std::uint64_t before = sim::audit::checks_performed();
  EventQueue q;
  q.schedule(Time::millis(1), [] {});
  q.schedule(Time::millis(2), [] {});
  while (!q.empty()) q.pop().fn();
  EXPECT_GT(sim::audit::checks_performed(), before);
}

TEST(Audit, CancellationEdgesRaiseNoViolations) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  EventQueue q;
  auto h = q.schedule(Time::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(h));              // cancel-after-fire
  auto h2 = q.schedule(Time::millis(2), [] {});
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_FALSE(q.cancel(h2));             // double-cancel
  EXPECT_FALSE(q.pending(sim::EventHandle{}));  // default handle
  EXPECT_EQ(sim::audit::violations(), 0u);
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, EnergyTimeReversalIsCaught) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::seconds(2.0), mac::RadioState::kRx);
  (void)meter.joules(Time::seconds(1.0));  // read before the transition
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  meter.set_state(Time::seconds(1.0), mac::RadioState::kIdle);  // backwards
  EXPECT_GE(sim::audit::violations(), 1u);
  sim::audit::reset_violations();
  sim::audit::set_abort_on_violation(true);
}

TEST(Audit, MonotoneEnergyAccumulationIsClean) {
  sim::audit::set_abort_on_violation(false);
  sim::audit::reset_violations();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::zero(), mac::RadioState::kTx);
  (void)meter.joules(Time::seconds(1.0));
  meter.set_state(Time::seconds(1.5), mac::RadioState::kIdle);
  const Time end = Time::seconds(3.0);
  EXPECT_GE(meter.joules(end), meter.active_joules(end));
  EXPECT_EQ(sim::audit::violations(), 0u);
  sim::audit::set_abort_on_violation(true);
}

#else  // !WSN_AUDIT_ENABLED

TEST(Audit, DisabledBuildPerformsNoChecks) {
  EventQueue q;
  q.schedule(Time::millis(1), [] {});
  q.pop().fn();
  mac::EnergyMeter meter{mac::EnergyParams{}};
  meter.set_state(Time::seconds(1.0), mac::RadioState::kRx);
  // Both calls below would violate in an audit build.
  (void)meter.joules(Time::zero());
  meter.set_state(Time::zero(), mac::RadioState::kIdle);
  EXPECT_EQ(sim::audit::checks_performed(), 0u);
  EXPECT_EQ(sim::audit::violations(), 0u);
}

#endif  // WSN_AUDIT_ENABLED

}  // namespace
}  // namespace wsn
