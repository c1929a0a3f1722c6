// Unit tests for the wireless channel, CSMA/CA MAC and energy model, plus
// random-traffic fuzzing of both MACs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
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

TEST(Energy, SplitResidenceChargesBitEqual) {
  // Splitting a residence must not change the bits: one second of Rx
  // charged as one arrival, or as two back-to-back arrivals plus one nested
  // inside them, with the meter refreshed in between, gives the same
  // joules. The split point is one where charging each piece in floating
  // point would not (0.395 · 0.123456789 + 0.395 · 0.876543211 rounds to
  // 0.3950000000000001).
  const EnergyParams params;
  const sim::Time end = sim::Time::seconds(1.0);
  const sim::Time cut = sim::Time::nanos(123'456'789);
  EnergyMeter whole_meter{params};
  RxCharge whole;
  whole.arrive(sim::Time::zero(), end);
  EnergyMeter split_meter{params};
  split_meter.set_state(cut, RadioState::kIdle);
  RxCharge split;
  split.arrive(sim::Time::zero(), cut);
  split.arrive(cut, end);
  split.arrive(cut, cut + sim::Time::millis(1));

  EXPECT_EQ(split.ns_at(end), end.as_nanos());
  EXPECT_EQ(split_meter.residence_ns(RadioState::kRx, end, split.ns_at(end)),
            end.as_nanos());
  EXPECT_EQ(whole_meter.joules(end, whole.ns_at(end)), params.rx_watts);
  EXPECT_EQ(split_meter.joules(end, split.ns_at(end)),
            whole_meter.joules(end, whole.ns_at(end)));
  EXPECT_EQ(split_meter.active_joules(end, split.ns_at(end)),
            whole_meter.active_joules(end, whole.ns_at(end)));
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
/// alone, bypassing the sender's access policy. The channel reuses the
/// returned slot after the frame's end sweep.
Transmission* inject(MacRig& rig, net::NodeId src, sim::Time airtime) {
  net::Frame f = MacRig::frame(net::kBroadcast);
  f.src = src;
  return rig.channel().begin_transmission(src, std::move(f), FrameKind::kData,
                                          airtime);
}

/// `inject` at absolute time `at`; the transmission's id lands in `*id`.
void inject_at(MacRig& rig, sim::Time at, net::NodeId src, sim::Time airtime,
               std::uint64_t* id = nullptr) {
  rig.sim().schedule_at(at, [&rig, src, airtime, id] {
    const Transmission* tx = inject(rig, src, airtime);
    if (id != nullptr) *id = tx->id;
  });
}

/// Receive time is charged when an arrival starts; these pin the
/// residences it must add up to, node 1's Off/Idle/Rx/Tx in that order.
/// TDMA transmits in its slot without carrier sense, so node 1's own frame
/// goes out at a known time over arrivals injected from nodes 0 and 2
/// (hidden from each other). Node 1's slot starts at one TDMA slot and its
/// 64-byte frame is on the air for `frame_airtime(64)`. With the parameter
/// false node 1 decodes nodes 0 and 2 (30 m away); with it true they sit
/// 60 m away under an 88 m carrier-sense range, so node 1 only
/// carrier-senses them and the start sweep charges it past the decodable
/// prefix. The residences are the same.
class RxChargeCase : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr sim::Time us(std::int64_t n) { return sim::Time::micros(n); }

  const double spacing_ = GetParam() ? 60.0 : 30.0;
  MacRig rig_{{{-spacing_, 0}, {0, 0}, {spacing_, 0}},
              40.0,
              GetParam() ? 88.0 : 0.0,
              MacKind::kTdma};
  const sim::Time slot_ = rig_.tdma().slot(rig_.phy());
  const sim::Time air_ = rig_.phy().frame_airtime(64);

  /// A raw frame from `src` begun at `at`: it reaches node 1 over
  /// [at + 1 us, at + 1 us + airtime).
  void raw(net::NodeId src, sim::Time at, sim::Time airtime) {
    inject_at(rig_, at, src, airtime);
  }
  void power_at(sim::Time at, bool alive) {
    rig_.sim().schedule_at(at, [this, alive] { rig_.mac(1).set_alive(alive); });
  }
  /// Node 1's residences at `at`, in ns.
  std::array<std::int64_t, kRadioStateCount> at(sim::Time when) {
    rig_.sim().run_until(when);
    std::array<std::int64_t, kRadioStateCount> out{};
    for (std::size_t s = 0; s < kRadioStateCount; ++s) {
      out[s] = rig_.mac(1).residence_ns(static_cast<RadioState>(s), when);
    }
    return out;
  }
  static std::array<std::int64_t, kRadioStateCount> want(sim::Time off,
                                                         sim::Time idle,
                                                         sim::Time rx,
                                                         sim::Time tx) {
    return {off.as_nanos(), idle.as_nanos(), rx.as_nanos(), tx.as_nanos()};
  }
};

TEST_P(RxChargeCase, OverlappingArrivalsChargeTheirUnion) {
  ASSERT_EQ(rig_.mac(1).neighbors().size(), GetParam() ? 0u : 2u);
  raw(0, us(100), us(500));  // [101, 601)
  raw(2, us(300), us(500));  // [301, 801)
  EXPECT_EQ(at(us(1000)), want(us(0), us(300), us(700), us(0)));
}

TEST_P(RxChargeCase, ArrivalSpanningOurOwnTxStart) {
  rig_.mac(1).send(MacRig::frame(net::kBroadcast));
  const sim::Time arrive = slot_ - us(200);
  raw(0, arrive - us(1), us(500));  // ends inside our frame
  const sim::Time end = us(4000);
  EXPECT_EQ(at(end), want(us(0), end - us(200) - air_, us(200), air_));
}

TEST_P(RxChargeCase, ArrivalStartingDuringOurTx) {
  rig_.mac(1).send(MacRig::frame(net::kBroadcast));
  const sim::Time arrive = slot_ + us(100);
  raw(0, arrive - us(1), us(800));  // outlasts our frame
  const sim::Time rx = arrive + us(800) - (slot_ + air_);
  const sim::Time end = us(4000);
  EXPECT_EQ(at(end), want(us(0), end - rx - air_, rx, air_));
}

TEST_P(RxChargeCase, PowerDownMidArrival) {
  raw(0, us(100), us(500));  // [101, 601)
  power_at(us(300), false);
  EXPECT_EQ(at(us(1000)), want(us(700), us(101), us(199), us(0)));
}

TEST_P(RxChargeCase, PowerDownMidTxWithAnArrivalInFlight) {
  rig_.mac(1).send(MacRig::frame(net::kBroadcast));
  raw(0, slot_ + us(99), us(800));  // reaches us 100 us into our frame
  const sim::Time down = slot_ + us(300);
  power_at(down, false);
  const sim::Time end = us(4000);
  EXPECT_EQ(at(end), want(end - down, slot_, us(0), us(300)));
}

TEST_P(RxChargeCase, DownUpCycleIgnoresArrivalsFromBeforePowerUp) {
  raw(0, us(100), us(500));  // [101, 601): cut at 200, ignored after 300
  power_at(us(200), false);
  power_at(us(300), true);
  raw(2, us(400), us(500));  // [401, 901)
  EXPECT_EQ(at(us(1000)), want(us(100), us(301), us(599), us(0)));
}

TEST_P(RxChargeCase, HarvestMidArrivalCountsOnlyTheElapsedPart) {
  raw(0, us(100), us(500));  // [101, 601)
  EXPECT_EQ(at(us(400)), want(us(0), us(101), us(299), us(0)));
  EXPECT_EQ(at(us(1000)), want(us(0), us(500), us(500), us(0)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, RxChargeCase, ::testing::Bool(),
    [](const auto& info) { return info.param ? "cs_only" : "decodable"; });

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
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  inject_at(rig, sim::Time::zero(), 0, sim::Time::micros(500), &a);
  inject_at(rig, sim::Time::micros(100), 2, sim::Time::micros(500), &b);
  rig.sim().run_until(sim::Time::millis(2));

  EXPECT_EQ(rig.mac(1).stats().arrivals_corrupted, 2u);
  EXPECT_TRUE(rig.user(1).received.empty());
  const auto recs = collisions(tracer);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].node, 1u);  // the victim first ...
  EXPECT_EQ(recs[0].a, a);
  EXPECT_EQ(recs[1].node, 1u);  // ... then the newcomer
  EXPECT_EQ(recs[1].a, b);
}

TEST_P(MacOverlap, CarrierSenseOnlyNewcomerCountsOnlyTheVictim) {
  // 1 decodes 0 but only carrier-senses 2; 0 and 2 cannot hear each other.
  trace::Tracer tracer{
      trace::Tracer::Options{.path = "", .ring_capacity = 1024}};
  MacRig rig{{{-30, 0}, {0, 0}, {60, 0}}, 40.0, 88.0, GetParam()};
  rig.sim().set_tracer(&tracer);
  std::uint64_t a = 0;
  inject_at(rig, sim::Time::zero(), 0, sim::Time::micros(500), &a);
  inject_at(rig, sim::Time::micros(100), 2, sim::Time::micros(500));
  rig.sim().run_until(sim::Time::millis(2));

  EXPECT_EQ(rig.mac(1).stats().arrivals_corrupted, 1u);
  EXPECT_TRUE(rig.user(1).received.empty());
  const auto recs = collisions(tracer);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].node, 1u);
  EXPECT_EQ(recs[0].peer, 0u);
  EXPECT_EQ(recs[0].a, a);
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

/// The end sweep hands each receiver the sender's slot in the receiver's
/// own neighbour list; the diffusion layer indexes per-edge state with it.
class MacSlotHandOff : public ::testing::TestWithParam<MacKind> {};

TEST_P(MacSlotHandOff, EveryReceptionNamesItsSenderSlot) {
  sim::Rng rng{7};
  std::vector<net::Vec2> pts;
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  MacRig rig{pts, 40.0, 88.0, GetParam()};
  // Every node broadcasts once and unicasts to each neighbour, spread out
  // so most frames get through on either MAC.
  for (net::NodeId src = 0; src < n; ++src) {
    const sim::Time at = sim::Time::millis(20 * src);
    rig.sim().schedule_at(at, [&rig, src] {
      rig.mac(src).send(MacRig::frame(net::kBroadcast));
      for (net::NodeId nb : rig.topology().neighbors(src)) {
        rig.mac(src).send(MacRig::frame(nb));
      }
    });
  }
  const sim::Time drain = GetParam() == MacKind::kTdma
                              ? rig.tdma_cycle() * 100
                              : sim::Time::zero();
  rig.sim().run_until(sim::Time::seconds(1.0) + drain);

  std::size_t checked = 0;
  for (net::NodeId r = 0; r < n; ++r) {
    const auto& user = rig.user(r);
    const auto nbrs = rig.topology().neighbors(r);
    ASSERT_EQ(user.slots.size(), user.received.size());
    for (std::size_t k = 0; k < user.received.size(); ++k) {
      ASSERT_LT(user.slots[k], nbrs.size()) << "receiver " << r;
      EXPECT_EQ(nbrs[user.slots[k]], user.received[k].src) << "receiver " << r;
      ++checked;
    }
  }
  EXPECT_GT(checked, n);
}

INSTANTIATE_TEST_SUITE_P(
    BothMacs, MacSlotHandOff,
    ::testing::Values(MacKind::kCsma, MacKind::kTdma),
    [](const auto& info) { return mac_kind_name(info.param); });

/// An ACK completes the queue head only if it comes from the head's
/// destination. Node 0 unicasts to the dead node 1; as its frame ends, an
/// ACK to node 0 is put on the air from node 2 (ignored: the frame fails
/// after its retries) or, as a control, from node 1, revived after missing
/// the frame (the frame succeeds).
class MacAckFilter : public ::testing::TestWithParam<MacKind> {};

TEST_P(MacAckFilter, OnlyTheHeadsDestinationCanAck) {
  for (const net::NodeId acker : {2u, 1u}) {
    SCOPED_TRACE(::testing::Message() << "ACK from node " << acker);
    MacRig rig{{{0, 0}, {20, 0}, {-20, 0}}, 40.0, 0.0, GetParam()};
    rig.mac(1).set_alive(false);
    rig.mac(0).send(MacRig::frame(1));
    // Nothing else is on the air, so node 0's medium is busy exactly while
    // it transmits.
    sim::Time t;
    const auto step_while = [&](bool busy) {
      while (rig.mac(0).medium_busy() == busy && t < sim::Time::millis(50)) {
        t += sim::Time::micros(1);
        rig.sim().run_until(t);
      }
    };
    step_while(false);
    step_while(true);
    if (acker == 1) rig.mac(1).set_alive(true);
    net::Frame ack;
    ack.src = acker;
    ack.dst = 0;
    rig.channel().begin_transmission(acker, ack, FrameKind::kAck,
                                     rig.phy().ack_airtime());
    rig.sim().run_until(sim::Time::seconds(1.0));
    EXPECT_EQ(rig.user(0).succeeded, acker == 1 ? 1 : 0);
    EXPECT_EQ(rig.user(0).failed, acker == 1 ? 0 : 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothMacs, MacAckFilter,
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

// Backoff freeze accounting. CsmaMac runs DIFS and a backoff stint of n
// slots on one timer, armed for DIFS + n slots when the medium turns idle.
// An arrival that freezes it inside DIFS charges nothing; past DIFS it
// charges floor((elapsed - DIFS) / slot) slots. That must equal the
// per-slot model, in which DIFS ends in its own event and every slot
// boundary is a tick event scheduled one slot (20 us) before it fires.
// Tie rule: a boundary that falls exactly on the freezing instant counts.
// Its tick was scheduled 20 us earlier (DIFS's end 50 us earlier), the
// arrival sweep that freezes only 1 us (propagation) earlier, so the tick
// had the lower sequence number and fired first.
//
// The draw is committed from the MAC's stream, and traced as kMacBackoff,
// at the expiry or at a freeze past DIFS. Arming reads it ahead from a
// copy, so a power-down or an ACK inside DIFS leaves the stream as it
// was. An ACK cannot freeze a stint past DIFS: it goes out SIFS after a
// reception whose start froze any stint, and the next stint is armed when
// that reception ends, with DIFS (> SIFS) to run. The same timer is the
// ACK timeout in kWaitAck, and a freeze acts only in kContend, so an ACK
// sent while waiting for our own ACK keeps the timeout.
//
// The expiry gets its sequence number when DIFS starts, so events of
// different nodes at the same nanosecond can dispatch in a new order. That
// cannot change an outcome (DESIGN.md, "One timer per CSMA MAC"): a
// transmission reaches other radios only after the propagation delay, a
// second arrival in the same nanosecond adds zero energy, and either order
// corrupts the same frames.
struct FreezeRun {
  std::int64_t slots_drawn = -1;
  sim::Time drawn_at;
  sim::Time tx_start;
};

/// Node 0 contends for one broadcast from t = 0; node 1's MAC stays
/// silent, but when `arrival` is set a raw 300 us frame from node 1
/// reaches node 0 at exactly that instant.
FreezeRun contend(std::optional<sim::Time> arrival) {
  MacRig rig{{{0, 0}, {10, 0}}, 40.0};
  trace::Tracer tracer{trace::Tracer::Options{
      .path = "", .ring_capacity = 256, .seed = 0, .config_digest = 0}};
  rig.sim().set_tracer(&tracer);
  rig.mac(0).send(MacRig::frame(net::kBroadcast));
  if (arrival) {
    // The channel's default propagation delay equals the PHY's.
    rig.sim().schedule_at(*arrival - rig.phy().propagation, [&rig] {
      net::Frame f = MacRig::frame(net::kBroadcast);
      f.src = 1;
      rig.channel().begin_transmission(1, std::move(f), FrameKind::kData,
                                       sim::Time::micros(300));
    });
  }
  rig.sim().run();
  rig.sim().set_tracer(nullptr);
  FreezeRun run;
  for (const trace::Record& r : tracer.ring_snapshot()) {
    if (r.node != 0) continue;
    if (r.kind == trace::RecordKind::kMacBackoff) {
      run.slots_drawn = static_cast<std::int64_t>(r.a);
      run.drawn_at = sim::Time::nanos(r.t_ns);
    } else if (r.kind == trace::RecordKind::kMacTxStart) {
      run.tx_start = sim::Time::nanos(r.t_ns);
    }
  }
  return run;
}

/// The undisturbed run's draw n and a slot k with 1 <= k < n to freeze in.
struct Undisturbed {
  PhyParams phy;
  sim::Time airtime = sim::Time::micros(300);  // node 1's raw frame
  sim::Time stint_start = phy.difs;            // slots count after DIFS
  FreezeRun free = contend(std::nullopt);
  std::int64_t n = free.slots_drawn;
  std::int64_t k = n / 2;
};

TEST(MacBackoff, UndisturbedStintTransmitsAfterTheDrawnSlots) {
  const Undisturbed u;
  EXPECT_EQ(u.free.drawn_at, u.stint_start + u.phy.slot * u.n);
  ASSERT_GE(u.n, 2) << "node 0's first draw must leave a slot to freeze in";
  EXPECT_EQ(u.free.tx_start, u.stint_start + u.phy.slot * u.n);
}

TEST(MacBackoff, ArrivalOnASlotBoundaryConsumesThatSlot) {
  const Undisturbed u;
  ASSERT_GE(u.k, 1);
  const sim::Time at = u.stint_start + u.phy.slot * u.k;
  const FreezeRun run = contend(at);
  EXPECT_EQ(run.tx_start,
            at + u.airtime + u.phy.difs + u.phy.slot * (u.n - u.k));
}

TEST(MacBackoff, ArrivalInsideASlotDoesNotConsumeIt) {
  const Undisturbed u;
  ASSERT_GE(u.k, 1);
  const sim::Time at =
      u.stint_start + u.phy.slot * u.k - sim::Time::micros(7);
  const FreezeRun run = contend(at);
  EXPECT_EQ(run.tx_start,
            at + u.airtime + u.phy.difs + u.phy.slot * (u.n - (u.k - 1)));
}

TEST(MacBackoff, ArrivalDuringDifsConsumesNoSlot) {
  const Undisturbed u;
  const sim::Time at = sim::Time::micros(30);
  ASSERT_LT(at, u.stint_start);
  const FreezeRun run = contend(at);
  // DIFS restarts after the frame; the backoff is drawn only when the
  // stint armed then expires.
  EXPECT_EQ(run.slots_drawn, u.n);
  EXPECT_EQ(run.drawn_at, at + u.airtime + u.phy.difs + u.phy.slot * u.n);
  EXPECT_EQ(run.tx_start, at + u.airtime + u.phy.difs + u.phy.slot * u.n);
}

// Same-instant ties around "medium idle". Each runs in every order the
// event queue can produce and pins the outcome: when node 0 draws its
// backoff and when it transmits. A tie's order is the order in which its
// two events were scheduled.

/// Node 0 of a two-node clique under a channel with propagation `prop`;
/// node 1's MAC stays silent. `script` schedules sends, raw frames from
/// node 1 and power changes; returns node 0's first draw and transmission.
template <class Script>
FreezeRun run_tie(sim::Time prop, const Script& script) {
  sim::Simulator sim;
  const net::Topology topo{{{0, 0}, {10, 0}}, 40.0};
  Channel channel{sim, topo, prop};
  const PhyParams phy;
  const EnergyParams energy;
  CsmaMac m0{sim, channel, 0, phy, energy, sim::Rng{100}};
  CsmaMac m1{sim, channel, 1, phy, energy, sim::Rng{101}};
  trace::Tracer tracer{trace::Tracer::Options{
      .path = "", .ring_capacity = 256, .seed = 0, .config_digest = 0}};
  sim.set_tracer(&tracer);
  const auto raw = [&sim, &channel](sim::Time at, sim::Time airtime) {
    sim.schedule_at(at, [&channel, airtime] {
      net::Frame f = MacRig::frame(net::kBroadcast);
      f.src = 1;
      channel.begin_transmission(1, std::move(f), FrameKind::kData, airtime);
    });
  };
  const auto send = [&sim, &m0](sim::Time at) {
    sim.schedule_at(at,
                    [&m0] { m0.send(MacRig::frame(net::kBroadcast)); });
  };
  script(sim, m0, raw, send);
  sim.run();
  sim.set_tracer(nullptr);
  FreezeRun run;
  for (const trace::Record& r : tracer.ring_snapshot()) {
    if (r.node != 0) continue;
    if (r.kind == trace::RecordKind::kMacBackoff && run.slots_drawn < 0) {
      run.slots_drawn = static_cast<std::int64_t>(r.a);
      run.drawn_at = sim::Time::nanos(r.t_ns);
    } else if (r.kind == trace::RecordKind::kMacTxStart &&
               run.tx_start == sim::Time::zero()) {
      run.tx_start = sim::Time::nanos(r.t_ns);
    }
  }
  return run;
}

TEST(MacBackoff, ContentionStartingAsTheLastArrivalEndsWaitsDifsFromThen) {
  // Frame X reaches node 0 over [1, 301) us. Node 0 starts contending at
  // 301 us, before or after X's end sweep: either it finds the medium
  // busy and X's end signals idle, or it finds it idle. Both arm DIFS and
  // the n slots at 301 us.
  const Undisturbed u;
  const sim::Time end = u.phy.propagation + u.airtime;
  for (bool send_first : {true, false}) {
    const FreezeRun run = run_tie(
        u.phy.propagation, [&](sim::Simulator& sim, MacBase& /*m0*/,
                               const auto& raw, const auto& send) {
          raw(sim::Time::zero(), u.airtime);  // end sweep scheduled at 0
          if (send_first) {
            send(end);  // scheduled now, before the end sweep exists
          } else {
            sim.schedule_at(sim::Time::micros(10), [&send, end] { send(end); });
          }
        });
    EXPECT_EQ(run.slots_drawn, u.n) << "send first: " << send_first;
    EXPECT_EQ(run.drawn_at, end + u.phy.difs + u.phy.slot * u.n)
        << "send first: " << send_first;
    EXPECT_EQ(run.tx_start, end + u.phy.difs + u.phy.slot * u.n)
        << "send first: " << send_first;
  }
}

TEST(MacBackoff, DifsExpiringAsAnArrivalStartsEitherOrder) {
  // With a propagation delay of DIFS, a frame begun at the instant node 0
  // starts contending reaches it exactly when DIFS ends. In either order
  // of the send and the frame, the freeze finds DIFS over: the backoff is
  // drawn then and frozen with no slot spent, and node 0 transmits a DIFS
  // plus the same n slots after the frame.
  const Undisturbed u;
  const sim::Time prop = u.phy.difs;
  const sim::Time at = sim::Time::micros(50);
  const sim::Time expiry = at + u.phy.difs;
  const sim::Time idle_difs = at + prop + u.airtime + u.phy.difs;
  for (bool difs_first : {true, false}) {
    const FreezeRun run = run_tie(
        prop, [&](sim::Simulator& /*sim*/, MacBase& /*m0*/, const auto& raw,
                  const auto& send) {
          if (difs_first) {
            send(at);
            raw(at, u.airtime);
          } else {
            raw(at, u.airtime);
            send(at);
          }
        });
    EXPECT_EQ(run.slots_drawn, u.n) << "DIFS first: " << difs_first;
    EXPECT_EQ(run.drawn_at, expiry) << "DIFS first: " << difs_first;
    EXPECT_EQ(run.tx_start, idle_difs + u.phy.slot * u.n)
        << "DIFS first: " << difs_first;
  }
}

TEST(MacBackoff, NextArrivalStartingAsTheLastEndsFreezesTheNewDifs) {
  // A reaches node 0 over [11, 311) us and B over [311, 611) us. A's end
  // sweep always runs before B's start sweep at 311 us (it was scheduled
  // earlier, when A began), so node 0 sees idle, arms its stint, and B
  // cancels it inside DIFS at once. The draw waits for the stint after B.
  const Undisturbed u;
  const sim::Time a_start = sim::Time::micros(10);
  const sim::Time b_start = a_start + u.airtime;
  const sim::Time b_end = b_start + u.phy.propagation + u.airtime;
  const FreezeRun run =
      run_tie(u.phy.propagation, [&](sim::Simulator& /*sim*/,
                                     MacBase& /*m0*/, const auto& raw,
                                     const auto& send) {
        send(sim::Time::zero());
        raw(a_start, u.airtime);
        raw(b_start, u.airtime);
      });
  EXPECT_EQ(run.slots_drawn, u.n);
  EXPECT_EQ(run.drawn_at, b_end + u.phy.difs + u.phy.slot * u.n);
  EXPECT_EQ(run.tx_start, b_end + u.phy.difs + u.phy.slot * u.n);
}

TEST(MacBackoff, DifsExpiringAsAnIgnoredArrivalEnds) {
  // Node 0 is down when frame X's start sweep runs, so X never makes it
  // busy. Back up, it contends so that DIFS ends exactly at X's end sweep.
  // X's end is no idle signal to node 0 and does not disturb the stint.
  const Undisturbed u;
  const sim::Time x_end = u.phy.propagation + u.airtime;
  const FreezeRun run =
      run_tie(u.phy.propagation, [&](sim::Simulator& sim, MacBase& m0,
                                     const auto& raw, const auto& send) {
        m0.set_alive(false);
        raw(sim::Time::zero(), u.airtime);
        sim.schedule_at(sim::Time::micros(100), [&m0] { m0.set_alive(true); });
        send(x_end - u.phy.difs);
      });
  EXPECT_EQ(run.slots_drawn, u.n);
  EXPECT_EQ(run.drawn_at, x_end + u.phy.slot * u.n);
  EXPECT_EQ(run.tx_start, x_end + u.phy.slot * u.n);
}

TEST(MacBackoff, PowerDownDuringDifsDrawsNothing) {
  // Node 0 starts contending at 0 and powers down 30 us into DIFS, which
  // flushes its frame; back up at 100 us, it sends again. The draw that
  // DIFS would have made never happened, so node 0 draws the undisturbed
  // run's n and transmits a DIFS plus n slots after the new send.
  const Undisturbed u;
  const sim::Time up = sim::Time::micros(100);
  const FreezeRun run =
      run_tie(u.phy.propagation, [&](sim::Simulator& sim, MacBase& m0,
                                     const auto& /*raw*/, const auto& send) {
        send(sim::Time::zero());
        sim.schedule_at(sim::Time::micros(30), [&m0] { m0.set_alive(false); });
        sim.schedule_at(up, [&m0] { m0.set_alive(true); });
        send(up);
      });
  EXPECT_EQ(run.slots_drawn, u.n);
  EXPECT_EQ(run.tx_start, up + u.phy.difs + u.phy.slot * u.n);
}

/// Node 0's data attempts and retry drop for one unicast to node 2.
struct AckWaitRun {
  std::vector<sim::Time> attempts;
  sim::Time dropped_at;
  std::uint64_t acks_sent = 0;
};

/// Node 0 unicasts one frame to node 2, which is down, so every attempt
/// times out and the frame is dropped after its retries. When `incoming`
/// is set, node 1 begins a raw 40 us frame addressed to node 0 at that
/// instant.
AckWaitRun wait_for_ack(std::optional<sim::Time> incoming) {
  MacRig rig{{{0, 0}, {10, 0}, {20, 0}}, 40.0};
  trace::Tracer tracer{trace::Tracer::Options{
      .path = "", .ring_capacity = 256, .seed = 0, .config_digest = 0}};
  rig.sim().set_tracer(&tracer);
  rig.mac(2).set_alive(false);
  rig.mac(0).send(MacRig::frame(2));
  if (incoming) {
    rig.sim().schedule_at(*incoming, [&rig] {
      net::Frame f = MacRig::frame(0);
      f.src = 1;
      rig.channel().begin_transmission(1, std::move(f), FrameKind::kData,
                                       sim::Time::micros(40));
    });
  }
  rig.sim().run();
  rig.sim().set_tracer(nullptr);
  AckWaitRun run;
  for (const trace::Record& r : tracer.ring_snapshot()) {
    if (r.node != 0) continue;
    if (r.kind == trace::RecordKind::kMacTxStart && r.peer == 2) {
      run.attempts.push_back(sim::Time::nanos(r.t_ns));
    } else if (r.kind == trace::RecordKind::kMacDrop) {
      run.dropped_at = sim::Time::nanos(r.t_ns);
    }
  }
  run.acks_sent = rig.mac(0).stats().acks_sent;
  return run;
}

TEST(MacBackoff, AckSentWhileWaitingForOwnAckKeepsTheTimeout) {
  // Node 1's frame reaches node 0 just after node 0's first attempt ends,
  // while node 0 waits for its own ACK. Node 0 acknowledges it a SIFS
  // later, well inside its ACK timeout. That ACK must not touch the
  // pending timeout: every retry and the final drop happen exactly when
  // they do without node 1's frame.
  const PhyParams phy;
  const AckWaitRun quiet = wait_for_ack(std::nullopt);
  ASSERT_EQ(quiet.attempts.size(),
            static_cast<std::size_t>(phy.max_retries) + 1);
  const sim::Time first_end = quiet.attempts[0] + phy.frame_airtime(64);
  ASSERT_LT(phy.propagation + sim::Time::micros(40) + phy.sifs +
                phy.ack_airtime(),
            phy.ack_timeout());
  const AckWaitRun busy = wait_for_ack(first_end);
  EXPECT_EQ(busy.acks_sent, 1u);
  EXPECT_EQ(busy.attempts, quiet.attempts);
  EXPECT_EQ(busy.dropped_at, quiet.dropped_at);
  EXPECT_GT(quiet.dropped_at, quiet.attempts.back());
}

// DCF oracle (Bianchi, "Performance analysis of the IEEE 802.11
// distributed coordination function", IEEE JSAC 18(3), 2000). N saturated
// senders in one clique see a per-attempt collision probability p that
// solves p = 1 - (1 - tau(p))^(N-1), where tau is the per-slot attempt
// probability of the finite-retry backoff chain with m + 1 stages of
// windows W * 2^i:
//   tau(p) = 2 S1 / (W S2 + S1),  S1 = sum p^i,  S2 = sum (2p)^i,  i = 0..m.
// This MAC draws from 0..cw with cw = 31 doubling to 1023 over 5
// retransmissions, so W = 32 and m = 5.
//
// The measured rate may sit a little below the model's. The model assumes
// a collision probability independent of the backoff stage (decoupling),
// and it ignores that this MAC waits DIFS after every busy period and has
// no post-backoff. Those simplifications are worth a few percent at these
// N, so the tolerance is 8 % relative, fixed before the test was run.
double bianchi_collision_probability(int senders) {
  constexpr double kW = 32.0;
  constexpr int kM = 5;
  const auto tau = [](double p) {
    double s1 = 0.0;
    double s2 = 0.0;
    for (int i = 0; i <= kM; ++i) {
      s1 += std::pow(p, i);
      s2 += std::pow(2.0 * p, i);
    }
    return 2.0 * s1 / (kW * s2 + s1);
  };
  // p - (1 - (1 - tau(p))^(N-1)) rises monotonically in p: bisect.
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double p = (lo + hi) / 2.0;
    if (p > 1.0 - std::pow(1.0 - tau(p), senders - 1)) {
      hi = p;
    } else {
      lo = p;
    }
  }
  return (lo + hi) / 2.0;
}

/// Keeps one unicast to node 0 queued at all times: each outcome refills.
struct SaturatedSender final : mac::MacUser {
  MacBase* mac = nullptr;
  void mac_receive(const net::Frame& /*f*/,
                   std::uint32_t /*from_slot*/) override {}
  void mac_send_succeeded(const net::Frame& /*f*/) override { refill(); }
  void mac_send_failed(const net::Frame& /*f*/) override { refill(); }
  void refill() const { mac->send(MacRig::frame(0)); }
};

class DcfOracle : public ::testing::TestWithParam<int> {};

TEST_P(DcfOracle, SaturatedCliqueMatchesBianchiCollisionProbability) {
  const int senders = GetParam();
  // Receiver 0 at the centre, senders on a 5 m circle: one clique.
  std::vector<net::Vec2> positions{{0, 0}};
  for (int i = 0; i < senders; ++i) {
    const double angle = 2.0 * std::numbers::pi * i / senders;
    positions.push_back({5.0 * std::cos(angle), 5.0 * std::sin(angle)});
  }
  MacRig rig{positions, 40.0};
  rig.mac(0).set_user(nullptr);  // count receptions in stats only
  std::vector<SaturatedSender> users(static_cast<std::size_t>(senders));
  for (int i = 0; i < senders; ++i) {
    const auto id = static_cast<net::NodeId>(i + 1);
    users[static_cast<std::size_t>(i)].mac = &rig.mac(id);
    rig.mac(id).set_user(&users[static_cast<std::size_t>(i)]);
    users[static_cast<std::size_t>(i)].refill();
  }
  rig.sim().run_until(sim::Time::seconds(60.0));

  std::uint64_t sent = 0;
  std::uint64_t failed_attempts = 0;
  for (int i = 1; i <= senders; ++i) {
    const MacStats& st = rig.mac(static_cast<net::NodeId>(i)).stats();
    sent += st.frames_sent;
    failed_attempts += st.retries + st.drops_retry_exhausted;
  }
  ASSERT_GT(sent, 10'000u);
  const double measured =
      static_cast<double>(failed_attempts) / static_cast<double>(sent);
  const double model = bianchi_collision_probability(senders);
  EXPECT_NEAR(measured, model, 0.08 * model)
      << senders << " senders: measured " << measured << ", model " << model;
}

INSTANTIATE_TEST_SUITE_P(Clique, DcfOracle, ::testing::Values(5, 10, 20),
                         [](const auto& info) {
                           return std::to_string(info.param) + "_senders";
                         });

/// Records the channel sweeps through the receive core's hooks. Node 0 is
/// the only transmitter and its frames never overlap, so every arrival
/// start finds an idle medium and every end empties it. A contending
/// radio therefore hears one `medium_became_busy` per start and one
/// `medium_became_idle` per end; a radio that only listens hears neither.
/// A start is logged with whether the radio is in node 0's radio range;
/// `deliver` then shows that the sweep passed that decodable flag on: only
/// in-range radios receive.
struct SweepLog {
  std::vector<std::pair<net::NodeId, bool>> starts;
  std::vector<net::NodeId> ends;
  std::vector<net::NodeId> delivered;
};

class RecorderMac final : public MacBase {
 public:
  RecorderMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
              const EnergyParams& energy, SweepLog& log, bool contends)
      : MacBase{sim, channel, id, PhyParams{}, energy},
        log_{&log},
        contends_{contends} {
    set_contending(contends_);
  }

  void send(net::Frame /*frame*/) override {}

 private:
  void on_tx_end(FrameKind /*sent*/) override {}
  // Power-down clears the flag; a revived contender contends again.
  void on_power_change(bool alive) override {
    set_contending(alive && contends_);
  }
  void on_ack() override {}
  void medium_became_busy() override {
    const auto in_range = channel_->topology().neighbors(0);
    log_->starts.emplace_back(
        id(), std::find(in_range.begin(), in_range.end(), id()) !=
                  in_range.end());
  }
  void deliver(const Transmission& /*tx*/,
               std::uint32_t /*from_slot*/) override {
    log_->delivered.push_back(id());
  }
  void medium_became_idle() override { log_->ends.push_back(id()); }

  SweepLog* log_;
  bool contends_;
};

/// Runs the three-frame script of the tests below: node 0 broadcasts once
/// with node 2 dead, then again after reviving node 2, with node 3 dying
/// between that frame's sweeps, then sends a unicast to node 1. The
/// carrier-sense-only node 6 stays dead throughout. Returns the log of each
/// frame.
std::array<SweepLog, 3> sweep_script(bool contends) {
  // Node 0 transmits. Nodes 1–3 are decodable (within 40 m), nodes 4–6
  // only carrier-sense the frame (within 80 m); node 6 stays dead.
  sim::Simulator sim;
  const net::Topology topo{
      {{0, 0}, {10, 0}, {20, 0}, {30, 0}, {50, 0}, {70, 0}, {60, 0}}, 40.0,
      80.0};
  Channel channel{sim, topo, PhyParams{}.propagation};
  EnergyParams energy;
  SweepLog log;
  std::vector<std::unique_ptr<RecorderMac>> macs;
  for (net::NodeId i = 0; i < topo.node_count(); ++i) {
    macs.push_back(
        std::make_unique<RecorderMac>(sim, channel, i, energy, log, contends));
  }
  macs[2]->set_alive(false);
  macs[6]->set_alive(false);
  const auto send_to = [&channel](net::NodeId dst) {
    net::Frame f;
    f.src = 0;
    f.dst = dst;
    f.bytes = 64;
    channel.begin_transmission(0, std::move(f), FrameKind::kData,
                               sim::Time::micros(500));
  };
  send_to(net::kBroadcast);
  // Two events total on the queue: the start sweep and the end sweep.
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  const SweepLog first = log;

  // A node that dies between the sweeps misses the end sweep too.
  log = SweepLog{};
  macs[2]->set_alive(true);
  send_to(net::kBroadcast);
  sim.schedule_in(sim::Time::micros(100),
                  [&macs] { macs[3]->set_alive(false); });
  sim.run();
  const SweepLog second = log;

  // Every live decodable radio (1 and 2) hears the unicast cleanly; only
  // its addressee is handed it.
  log = SweepLog{};
  send_to(1);
  sim.run();
  // The dead carrier-sense-only radio was charged no receive time (and the
  // logs below show it heard no hook).
  EXPECT_EQ(macs[6]->residence_ns(RadioState::kRx, sim.now()), 0);
  return {first, second, log};
}

TEST(Channel, BatchedArrivalsFollowAudibleOrderAndSkipDeadNodes) {
  // The batched sweeps must reach contending radios in partitioned
  // audible-list order — decodable prefix by id, then CS-only by id — with
  // the dead node (2) silently skipped, and each sweep must be a single
  // event.
  const auto [first, second, unicast] = sweep_script(/*contends=*/true);
  const std::vector<std::pair<net::NodeId, bool>> want_starts{
      {1, true}, {3, true}, {4, false}, {5, false}};
  EXPECT_EQ(first.starts, want_starts);
  EXPECT_EQ(first.ends, (std::vector<net::NodeId>{1, 3, 4, 5}));
  EXPECT_EQ(first.delivered, (std::vector<net::NodeId>{1, 3}));

  const std::vector<std::pair<net::NodeId, bool>> want_starts2{
      {1, true}, {2, true}, {3, true}, {4, false}, {5, false}};
  EXPECT_EQ(second.starts, want_starts2);
  EXPECT_EQ(second.ends, (std::vector<net::NodeId>{1, 2, 4, 5}));
  EXPECT_EQ(second.delivered, (std::vector<net::NodeId>{1, 2}));
  // Overhearers still see the medium go idle.
  EXPECT_EQ(unicast.ends, (std::vector<net::NodeId>{1, 2, 4, 5}));
  EXPECT_EQ(unicast.delivered, (std::vector<net::NodeId>{1}));
}

TEST(Channel, ListenOnlyRadiosHearNoHooks) {
  // Radios that do not contend get no busy/idle calls at all; the sweeps
  // still deliver their clean frames in audible order.
  const auto [first, second, unicast] = sweep_script(/*contends=*/false);
  EXPECT_TRUE(first.starts.empty());
  EXPECT_TRUE(first.ends.empty());
  EXPECT_EQ(first.delivered, (std::vector<net::NodeId>{1, 3}));
  EXPECT_TRUE(second.starts.empty());
  EXPECT_TRUE(second.ends.empty());
  EXPECT_EQ(second.delivered, (std::vector<net::NodeId>{1, 2}));
  EXPECT_EQ(unicast.delivered, (std::vector<net::NodeId>{1}));
}

}  // namespace
}  // namespace wsn::mac
