// Unit tests for the wireless channel, CSMA/CA MAC and energy model, plus
// random-traffic fuzzing of both MACs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mac/channel.hpp"
#include "mac_rig.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace wsn::mac {
namespace {

using testing::MacKind;
using testing::MacRig;

std::string mac_kind_name(MacKind kind) {
  return kind == MacKind::kCsma ? "csma" : "tdma";
}

TEST(PhyParams, AirtimeMath) {
  PhyParams phy;
  // 64B payload + 28B header = 92B = 736 bits at 1.6 Mbps = 460 µs + preamble.
  const auto t = phy.frame_airtime(64);
  EXPECT_EQ(t.as_nanos(), (phy.preamble + sim::Time::micros(460)).as_nanos());
  EXPECT_GT(phy.ack_airtime(), phy.preamble);
  EXPECT_GT(phy.ack_timeout(), phy.ack_airtime());
}

TEST(Mac, UnicastDeliveredAndAcked) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  ASSERT_EQ(rig.user(1).received.size(), 1u);
  EXPECT_EQ(rig.user(1).received[0].src, 0u);
  EXPECT_EQ(rig.user(1).received[0].bytes, 64u);
  EXPECT_EQ(rig.user(0).succeeded, 1);
  EXPECT_EQ(rig.user(0).failed, 0);
  EXPECT_EQ(rig.mac(0).stats().frames_sent, 1u);
  EXPECT_EQ(rig.mac(1).stats().acks_sent, 1u);
}

TEST(Mac, BroadcastReachesOnlyNodesInRange) {
  MacRig rig{{{0, 0}, {20, 0}, {39, 0}, {120, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 1u);
  EXPECT_EQ(rig.user(2).received.size(), 1u);
  EXPECT_EQ(rig.user(3).received.size(), 0u);
  // No ACKs for broadcast.
  EXPECT_EQ(rig.mac(1).stats().acks_sent, 0u);
  EXPECT_EQ(rig.user(0).succeeded, 0);
}

TEST(Mac, OverheardUnicastIsNotDelivered) {
  MacRig rig{{{0, 0}, {20, 0}, {30, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 1u);
  EXPECT_EQ(rig.user(2).received.size(), 0u);  // heard but not for it
}

TEST(Mac, HiddenTerminalBroadcastsCollideAtTheMiddle) {
  // 0 and 2 cannot hear each other; both transmit at t=0 → 1 decodes nothing.
  MacRig rig{{{0, 0}, {35, 0}, {70, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.mac(2).send(MacRig::frame(net::kBroadcast));
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 0u);
  EXPECT_GE(rig.mac(1).stats().arrivals_corrupted, 2u);
}

TEST(Mac, CarrierSenseSerializesNeighbours) {
  // 0 and 1 hear each other; both broadcast "simultaneously": the second
  // defers, so 2 receives both frames cleanly.
  MacRig rig{{{0, 0}, {10, 0}, {30, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.mac(1).send(MacRig::frame(net::kBroadcast));
  rig.sim().run();
  EXPECT_EQ(rig.user(2).received.size(), 2u);
}

TEST(Mac, UnicastToDeadNodeFailsAfterRetries) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(1).set_alive(false);
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  EXPECT_EQ(rig.user(0).failed, 1);
  EXPECT_EQ(rig.mac(0).stats().drops_retry_exhausted, 1u);
  EXPECT_EQ(rig.mac(0).stats().retries,
            static_cast<std::uint64_t>(rig.phy().max_retries));
  EXPECT_EQ(rig.user(1).received.size(), 0u);
}

TEST(Mac, QueueOverflowDrops) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  for (std::size_t i = 0; i < rig.phy().queue_limit + 5; ++i) {
    rig.mac(0).send(MacRig::frame(1));
  }
  EXPECT_EQ(rig.mac(0).stats().drops_queue_full, 5u);
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), rig.phy().queue_limit);
}

TEST(Mac, DeadSenderDropsOutgoing) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(0).set_alive(false);
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  EXPECT_EQ(rig.mac(0).stats().frames_sent, 0u);
  EXPECT_EQ(rig.user(1).received.size(), 0u);
}

TEST(Mac, MidFlightAbortCorruptsReception) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast, 1000));  // long frame
  // Kill the sender while the frame is in the air.
  rig.sim().schedule_in(sim::Time::micros(300),
                        [&] { rig.mac(0).set_alive(false); });
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 0u);
}

TEST(Energy, IdleOnlyAccumulatesIdlePower) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.sim().schedule_in(sim::Time::seconds(10.0), [] {});
  rig.sim().run();
  const double j = rig.mac(0).energy_joules(rig.sim().now());
  EXPECT_NEAR(j, rig.energy().idle_watts * 10.0, 1e-9);
  EXPECT_NEAR(rig.mac(0).active_energy_joules(rig.sim().now()), 0.0, 1e-12);
}

TEST(Energy, TransmitAndReceiveAreCharged) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.sim().schedule_in(sim::Time::seconds(1.0), [] {});
  rig.sim().run();
  const double airtime = rig.phy().frame_airtime(64).as_seconds();
  const double tx_extra = (rig.energy().tx_watts - rig.energy().idle_watts) * airtime;
  const double rx_extra = (rig.energy().rx_watts - rig.energy().idle_watts) * airtime;

  const double sender = rig.mac(0).energy_joules(rig.sim().now());
  const double receiver = rig.mac(1).energy_joules(rig.sim().now());
  const double baseline = rig.energy().idle_watts * 1.0;
  EXPECT_NEAR(sender, baseline + tx_extra, 1e-5);
  EXPECT_NEAR(receiver, baseline + rx_extra, 1e-5);
  EXPECT_NEAR(rig.mac(0).active_energy_joules(rig.sim().now()),
              rig.energy().tx_watts * airtime, 1e-5);
}

TEST(Energy, DeadNodeDrawsNothing) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(0).set_alive(false);
  rig.sim().schedule_in(sim::Time::seconds(5.0), [] {});
  rig.sim().run();
  EXPECT_NEAR(rig.mac(0).energy_joules(rig.sim().now()), 0.0, 1e-12);
}

TEST(Energy, CarrierSenseOnlyArrivalBurnsReceivePower) {
  // Node 1 at 50 m: audible (cs 88 m) but cannot decode (range 40 m).
  MacRig rig{{{0, 0}, {50, 0}}, 40.0, 88.0};
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  rig.sim().schedule_in(sim::Time::seconds(1.0), [] {});
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 0u);
  const double airtime = rig.phy().frame_airtime(64).as_seconds();
  EXPECT_NEAR(rig.mac(1).active_energy_joules(rig.sim().now()),
              rig.energy().rx_watts * airtime, 1e-5);
}

TEST(Mac, RevivedNodeWorksAgain) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  rig.mac(1).set_alive(false);
  rig.mac(1).set_alive(true);
  rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 1u);
}

TEST(Mac, ManyUnicastsAllDelivered) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  for (int i = 0; i < 50; ++i) rig.mac(0).send(MacRig::frame(1));
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 50u);
  EXPECT_EQ(rig.user(0).succeeded, 50);
}

// Fuzz: random traffic over a random topology, on either MAC; structural
// invariants must hold regardless of collisions, retries and queue drops.
// Audit builds also check every MAC's frame-conservation ledger here.
class MacFuzz
    : public ::testing::TestWithParam<std::tuple<MacKind, std::uint64_t>> {};

TEST_P(MacFuzz, InvariantsUnderRandomTraffic) {
  const auto [kind, seed] = GetParam();
  sim::Rng rng{seed};
  std::vector<net::Vec2> pts;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)});
  }
  MacRig rig{pts, 40.0, 88.0, kind};
  std::uint64_t submitted = 0;
  for (int burst = 0; burst < 20; ++burst) {
    rig.sim().schedule_in(sim::Time::millis(rng.uniform_int(0, 500)), [&rig,
                                                                       &rng,
                                                                       n] {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
      const auto dst_roll = rng.uniform_int(0, static_cast<std::int64_t>(n));
      const net::NodeId dst = dst_roll == static_cast<std::int64_t>(n)
                                  ? net::kBroadcast
                                  : static_cast<net::NodeId>(dst_roll);
      if (dst != src) rig.mac(src).send(MacRig::frame(dst, 64));
    });
    ++submitted;
  }
  if (kind == MacKind::kCsma) {
    // Random traffic must drain: every timer stops and every frame
    // completes or is dropped.
    rig.sim().run();
  } else {
    // TDMA's slot timer re-arms forever, so the event queue never drains:
    // run to a horizon that covers every frame's retries.
    rig.sim().run_until(sim::Time::seconds(0.5) + rig.tdma_cycle() * 100);
  }

  std::uint64_t sent = 0, delivered = 0, drops = 0;
  for (net::NodeId i = 0; i < n; ++i) {
    const auto& st = rig.mac(i).stats();
    sent += st.frames_sent;
    delivered += st.frames_delivered;
    drops += st.drops_queue_full + st.drops_retry_exhausted;
    // A quiesced CSMA run leaves no arrival in flight anywhere.
    if (kind == MacKind::kCsma) {
      EXPECT_FALSE(rig.mac(i).medium_busy());
    }
    // Energy is always within the physical envelope.
    const double j = rig.mac(i).energy_joules(rig.sim().now());
    EXPECT_GE(j, 0.0);
    EXPECT_LE(j, rig.energy().tx_watts * rig.sim().now().as_seconds() + 1e-9);
  }
  // Every submission was either put on the air (possibly several times,
  // counting retries) or dropped.
  EXPECT_LE(drops, submitted);
  EXPECT_GT(sent + drops, 0u);
  // Nothing is delivered that was never transmitted.
  EXPECT_LE(delivered, sent * n);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MacFuzz,
    ::testing::Combine(::testing::Values(MacKind::kCsma, MacKind::kTdma),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const auto& info) {
      return mac_kind_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

/// Puts a broadcast data frame from `src` on the air through the channel
/// alone, bypassing the sender's access policy.
TransmissionPtr inject(MacRig& rig, net::NodeId src, sim::Time airtime) {
  net::Frame f = MacRig::frame(net::kBroadcast);
  f.src = src;
  return rig.channel().begin_transmission(src, std::move(f), FrameKind::kData,
                                          airtime);
}

/// `inject` at absolute time `at`; the transmission lands in `*out`.
void inject_at(MacRig& rig, sim::Time at, net::NodeId src, sim::Time airtime,
               TransmissionPtr* out = nullptr) {
  rig.sim().schedule_at(at, [&rig, src, airtime, out] {
    auto tx = inject(rig, src, airtime);
    if (out != nullptr) *out = std::move(tx);
  });
}

/// The receive path is shared, so both MACs must count collisions alike:
/// one per decodable frame an overlap corrupts, the victim first.
class MacOverlap : public ::testing::TestWithParam<MacKind> {};

std::vector<trace::Record> collisions(const trace::Tracer& tracer) {
  std::vector<trace::Record> out;
  for (const trace::Record& r : tracer.ring_snapshot()) {
    if (r.kind == trace::RecordKind::kMacCollision) out.push_back(r);
  }
  return out;
}

TEST_P(MacOverlap, TwoDecodableFramesBothCountAsCollisions) {
  // 0 and 2 are hidden from each other; 1 decodes both.
  trace::Tracer tracer{
      trace::Tracer::Options{.path = "", .ring_capacity = 1024}};
  MacRig rig{{{-30, 0}, {0, 0}, {30, 0}}, 40.0, 0.0, GetParam()};
  rig.sim().set_tracer(&tracer);
  TransmissionPtr a, b;
  inject_at(rig, sim::Time::zero(), 0, sim::Time::micros(500), &a);
  inject_at(rig, sim::Time::micros(100), 2, sim::Time::micros(500), &b);
  rig.sim().run_until(sim::Time::millis(2));

  EXPECT_EQ(rig.mac(1).stats().arrivals_corrupted, 2u);
  EXPECT_TRUE(rig.user(1).received.empty());
  const auto recs = collisions(tracer);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].node, 1u);  // the victim first ...
  EXPECT_EQ(recs[0].a, a->id);
  EXPECT_EQ(recs[1].node, 1u);  // ... then the newcomer
  EXPECT_EQ(recs[1].a, b->id);
}

TEST_P(MacOverlap, CarrierSenseOnlyNewcomerCountsOnlyTheVictim) {
  // 1 decodes 0 but only carrier-senses 2; 0 and 2 cannot hear each other.
  trace::Tracer tracer{
      trace::Tracer::Options{.path = "", .ring_capacity = 1024}};
  MacRig rig{{{-30, 0}, {0, 0}, {60, 0}}, 40.0, 88.0, GetParam()};
  rig.sim().set_tracer(&tracer);
  TransmissionPtr a;
  inject_at(rig, sim::Time::zero(), 0, sim::Time::micros(500), &a);
  inject_at(rig, sim::Time::micros(100), 2, sim::Time::micros(500));
  rig.sim().run_until(sim::Time::millis(2));

  EXPECT_EQ(rig.mac(1).stats().arrivals_corrupted, 1u);
  EXPECT_TRUE(rig.user(1).received.empty());
  const auto recs = collisions(tracer);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].node, 1u);
  EXPECT_EQ(recs[0].peer, 0u);
  EXPECT_EQ(recs[0].a, a->id);
}

INSTANTIATE_TEST_SUITE_P(
    BothMacs, MacOverlap,
    ::testing::Values(MacKind::kCsma, MacKind::kTdma),
    [](const auto& info) { return mac_kind_name(info.param); });

/// A power cycle while a frame is in the air: the frame's end must be
/// ignored (nothing delivered, no count underflow, no idle signal while
/// another frame is still arriving) and the radio must receive normally
/// afterwards. Node 1 receives; 0 and 2 are hidden from each other.
class MacPowerCycle : public ::testing::TestWithParam<MacKind> {
 protected:
  // The channel's default propagation delay: a frame begun at t reaches
  // the receivers (its arrival-start sweep) at t + kProp.
  static constexpr sim::Time kProp = sim::Time::micros(1);
  static constexpr sim::Time kAir = sim::Time::micros(1000);

  MacRig rig_{{{-30, 0}, {0, 0}, {30, 0}}, 40.0, 0.0, GetParam()};

  void power_at(sim::Time at, bool alive) {
    rig_.sim().schedule_at(at, [this, alive] { rig_.mac(1).set_alive(alive); });
  }

  /// Frame A from node 0 begins at t=0, so its end sweep runs at
  /// kProp + kAir. Frame C from node 2 starts later on what node 1 sees as
  /// an idle medium and outlasts A: at A's (ignored) end node 1 must still
  /// be busy with C, and C must then be delivered.
  void expect_a_ignored_and_c_received() {
    inject_at(rig_, sim::Time::micros(200), 2, kAir);
    bool busy_after_a = false;
    const sim::Time after_a = kProp + kAir + sim::Time::micros(1);
    rig_.sim().schedule_at(after_a, [this, &busy_after_a] {
      busy_after_a = rig_.mac(1).medium_busy();
    });
    rig_.sim().run_until(sim::Time::millis(5));

    EXPECT_TRUE(busy_after_a);
    EXPECT_FALSE(rig_.mac(1).medium_busy());
    ASSERT_EQ(rig_.user(1).received.size(), 1u);
    EXPECT_EQ(rig_.user(1).received[0].src, 2u);
    EXPECT_EQ(rig_.mac(1).stats().arrivals_corrupted, 0u);
  }
};

TEST_P(MacPowerCycle, DownAtStartSweepUpAtEnd) {
  rig_.mac(1).set_alive(false);
  inject_at(rig_, sim::Time::zero(), 0, kAir);
  power_at(sim::Time::micros(100), true);
  expect_a_ignored_and_c_received();
}

TEST_P(MacPowerCycle, DownAndUpWithinOneArrival) {
  inject_at(rig_, sim::Time::zero(), 0, kAir);
  power_at(sim::Time::micros(100), false);
  power_at(sim::Time::micros(150), true);
  expect_a_ignored_and_c_received();
}

TEST_P(MacPowerCycle, StartSweepBeforePowerUpAtTheSameInstant) {
  rig_.mac(1).set_alive(false);
  inject(rig_, 0, kAir);  // A's start sweep is queued before the power-up
  power_at(kProp, true);
  expect_a_ignored_and_c_received();
}

TEST_P(MacPowerCycle, PowerUpBeforeStartSweepAtTheSameInstant) {
  rig_.mac(1).set_alive(false);
  power_at(kProp, true);  // queued before A's start sweep: A is received
  inject(rig_, 0, kAir);
  inject_at(rig_, sim::Time::micros(1500), 2, kAir);
  rig_.sim().run_until(sim::Time::millis(5));

  EXPECT_FALSE(rig_.mac(1).medium_busy());
  ASSERT_EQ(rig_.user(1).received.size(), 2u);
  EXPECT_EQ(rig_.user(1).received[0].src, 0u);
  EXPECT_EQ(rig_.user(1).received[1].src, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    BothMacs, MacPowerCycle,
    ::testing::Values(MacKind::kCsma, MacKind::kTdma),
    [](const auto& info) { return mac_kind_name(info.param); });

TEST(Mac, BidirectionalTrafficCompletes) {
  MacRig rig{{{0, 0}, {20, 0}}, 40.0};
  for (int i = 0; i < 20; ++i) {
    rig.mac(0).send(MacRig::frame(1));
    rig.mac(1).send(MacRig::frame(0));
  }
  rig.sim().run();
  EXPECT_EQ(rig.user(1).received.size(), 20u);
  EXPECT_EQ(rig.user(0).received.size(), 20u);
}

/// Records the order in which the channel's batched sweeps hit this radio.
class RecorderMac final : public MacBase {
 public:
  RecorderMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
              const EnergyParams& energy,
              std::vector<std::pair<net::NodeId, bool>>& starts,
              std::vector<net::NodeId>& ends)
      : MacBase{sim, channel, id, energy, 0}, starts_{&starts}, ends_{&ends} {}

  void send(net::Frame /*frame*/) override {}
  void arrival_start(const TransmissionPtr& /*tx*/, bool decodable) override {
    starts_->emplace_back(id(), decodable);
  }
  void arrival_end(const TransmissionPtr& /*tx*/) override {
    ends_->push_back(id());
  }

 private:
  void on_tx_end(FrameKind /*sent*/) override {}
  void on_power_change(bool /*alive*/) override {}
  void deliver(const Transmission& /*tx*/) override {}

  std::vector<std::pair<net::NodeId, bool>>* starts_;
  std::vector<net::NodeId>* ends_;
};

TEST(Channel, BatchedArrivalsFollowAudibleOrderAndSkipDeadNodes) {
  // Node 0 transmits. Nodes 1–3 are decodable (within 40 m), nodes 4–5
  // only carrier-sense the frame (within 80 m). The batched sweeps must
  // deliver in partitioned audible-list order — decodable prefix by id,
  // then CS-only by id — with the dead node (2) silently skipped, and
  // each sweep must be a single event.
  sim::Simulator sim;
  const net::Topology topo{
      {{0, 0}, {10, 0}, {20, 0}, {30, 0}, {50, 0}, {70, 0}}, 40.0, 80.0};
  Channel channel{sim, topo};
  EnergyParams energy;
  std::vector<std::pair<net::NodeId, bool>> starts;
  std::vector<net::NodeId> ends;
  std::vector<std::unique_ptr<RecorderMac>> macs;
  for (net::NodeId i = 0; i < topo.node_count(); ++i) {
    macs.push_back(
        std::make_unique<RecorderMac>(sim, channel, i, energy, starts, ends));
  }
  macs[2]->set_alive(false);

  net::Frame f;
  f.src = 0;
  f.dst = net::kBroadcast;
  f.bytes = 64;
  channel.begin_transmission(0, std::move(f), FrameKind::kData,
                             sim::Time::micros(500));
  // Two events total on the queue: the start sweep and the end sweep.
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();

  const std::vector<std::pair<net::NodeId, bool>> want_starts{
      {1, true}, {3, true}, {4, false}, {5, false}};
  EXPECT_EQ(starts, want_starts);
  EXPECT_EQ(ends, (std::vector<net::NodeId>{1, 3, 4, 5}));

  // A node that dies between the sweeps misses the end sweep too.
  starts.clear();
  ends.clear();
  macs[2]->set_alive(true);
  net::Frame g;
  g.src = 0;
  g.dst = net::kBroadcast;
  g.bytes = 64;
  channel.begin_transmission(0, std::move(g), FrameKind::kData,
                             sim::Time::micros(500));
  sim.schedule_in(sim::Time::micros(100),
                  [&macs] { macs[3]->set_alive(false); });
  sim.run();
  const std::vector<std::pair<net::NodeId, bool>> want_starts2{
      {1, true}, {2, true}, {3, true}, {4, false}, {5, false}};
  EXPECT_EQ(starts, want_starts2);
  EXPECT_EQ(ends, (std::vector<net::NodeId>{1, 2, 4, 5}));
}

}  // namespace
}  // namespace wsn::mac
