// Unit + integration tests for the TDMA MAC (paper §4.2's alternative).
#include <gtest/gtest.h>

#include "mac/tdma_mac.hpp"
#include "mac_rig.hpp"
#include "scenario/experiment.hpp"

namespace wsn::mac {
namespace {

using testing::MacKind;
using testing::MacRig;

TEST(TdmaParams, SlotMath) {
  // A one-node schedule: the cycle is exactly one slot.
  MacRig rig{{{0, 0}}, 40.0, 0.0, MacKind::kTdma};
  EXPECT_GT(rig.tdma_cycle(),
            rig.phy().frame_airtime(rig.tdma().max_payload_bytes));
  EXPECT_GT(rig.phy().frame_airtime(64), rig.phy().preamble);
}

TEST(Tdma, UnicastDeliveredAndAcked) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0, 0.0, MacKind::kTdma};
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run_until(rig.tdma_cycle() * 2);
  ASSERT_EQ(rig.user(1).received.size(), 1u);
  EXPECT_EQ(rig.user(0).succeeded, 1);
  EXPECT_EQ(rig.mac(1).stats().acks_sent, 1u);
}

TEST(Tdma, BroadcastReachesNeighbours) {
  MacRig rig{{{0, 0}, {20, 0}, {35, 0}, {200, 0}}, 40.0, 0.0, MacKind::kTdma};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.sim().run_until(rig.tdma_cycle());
  EXPECT_EQ(rig.user(1).received.size(), 1u);
  EXPECT_EQ(rig.user(2).received.size(), 1u);
  EXPECT_EQ(rig.user(3).received.size(), 0u);
}

TEST(Tdma, SimultaneousSendersNeverCollide) {
  // All three within range; the schedule serialises them perfectly.
  MacRig rig{{{0, 0}, {15, 0}, {30, 0}}, 40.0, 0.0, MacKind::kTdma};
  for (int k = 0; k < 5; ++k) {
    rig.mac(0).send(MacRig::frame(net::kBroadcast));
    rig.mac(1).send(MacRig::frame(net::kBroadcast));
    rig.mac(2).send(MacRig::frame(net::kBroadcast));
  }
  rig.sim().run_until(rig.tdma_cycle() * 8);
  EXPECT_EQ(rig.mac(0).stats().arrivals_corrupted, 0u);
  EXPECT_EQ(rig.mac(1).stats().arrivals_corrupted, 0u);
  // Node 1 hears 5 frames from each side.
  EXPECT_EQ(rig.user(1).received.size(), 10u);
}

TEST(Tdma, RetryThenFailureOnDeadReceiver) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0, 0.0, MacKind::kTdma};
  rig.mac(1).set_alive(false);
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run_until(rig.tdma_cycle() * 6);
  EXPECT_EQ(rig.user(0).failed, 1);
  EXPECT_EQ(rig.mac(0).stats().drops_retry_exhausted, 1u);
  EXPECT_EQ(rig.mac(0).stats().retries,
            static_cast<std::uint64_t>(rig.tdma().max_retries));
}

TEST(Tdma, RevivedNodeRejoinsSchedule) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0, 0.0, MacKind::kTdma};
  rig.mac(1).set_alive(false);
  rig.sim().run_until(rig.tdma_cycle());
  rig.mac(1).set_alive(true);
  rig.mac(1).send(MacRig::frame(0));
  rig.sim().run_until(rig.tdma_cycle() * 3);
  EXPECT_EQ(rig.user(0).received.size(), 1u);
}

TEST(Tdma, NodeRevivedBeforeItsFirstSlotKeepsIt) {
  // Node 2 owns the third slot of each cycle. Revived one slot in, before
  // that slot has come round once, it must transmit in the first cycle
  // rather than one cycle late.
  MacRig rig{{{0, 0}, {15, 0}, {30, 0}}, 40.0, 0.0, MacKind::kTdma};
  const sim::Time slot = rig.tdma_cycle().scaled(1.0 / 3.0);
  rig.mac(2).set_alive(false);
  rig.sim().run_until(slot);
  rig.mac(2).set_alive(true);
  rig.mac(2).send(MacRig::frame(net::kBroadcast));
  rig.sim().run_until(rig.tdma_cycle());
  EXPECT_EQ(rig.user(0).received.size(), 1u);
}

TEST(Tdma, ThroughputOneFramePerCycle) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0, 0.0, MacKind::kTdma};
  for (int k = 0; k < 10; ++k) rig.mac(0).send(MacRig::frame(1));
  rig.sim().run_until(rig.tdma_cycle() * 4);
  // At most one frame per owned slot: 4 cycles → ≤4 (first slot may be
  // missed depending on phase).
  EXPECT_LE(rig.user(1).received.size(), 4u);
  EXPECT_GE(rig.user(1).received.size(), 3u);
}

TEST(Tdma, IdleMacSchedulesNothing) {
  // A MAC arms its slot only while a frame is queued: with no traffic,
  // several cycles dispatch no event.
  MacRig rig{{{0, 0}, {20, 0}, {35, 0}}, 40.0, 0.0, MacKind::kTdma};
  EXPECT_EQ(rig.sim().events_pending(), 0u);
  rig.sim().run_until(rig.tdma_cycle() * 5);
  EXPECT_EQ(rig.sim().events_dispatched(), 0u);
  // The ACK closes the window: nothing stays armed on either side.
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run_until(rig.tdma_cycle() * 7);
  EXPECT_EQ(rig.user(0).succeeded, 1);
  EXPECT_EQ(rig.sim().events_pending(), 0u);
}

TEST(TdmaIntegration, DiffusionRunsOverTdma) {
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 60;
  cfg.mac_type = scenario::MacType::kTdma;
  cfg.algorithm = core::Algorithm::kGreedy;
  cfg.duration = sim::Time::seconds(120.0);
  cfg.seed = 2;
  // Match the aggregation interval to the TDMA cycle (paper §4.2).
  const auto res = scenario::run_experiment(cfg);
  EXPECT_GT(res.metrics.delivery_ratio, 0.8);
  EXPECT_EQ(res.arrivals_corrupted, 0u);  // collision-free schedule
}

}  // namespace
}  // namespace wsn::mac
