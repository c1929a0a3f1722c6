// Rotation semantics of the §5.3 failure process (scenario/failure.*):
// revive-before-draw, deterministic victim choice, and the guarantee that
// powered-down nodes note no items to the metrics collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "protocol_rig.hpp"
#include "scenario/failure.hpp"

namespace wsn::scenario {
namespace {

using wsn::testing::ProtocolRig;

std::vector<net::Vec2> grid(std::size_t n) {
  std::vector<net::Vec2> p;
  p.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back({static_cast<double>(i % 4) * 30.0,
                 static_cast<double>(i / 4) * 30.0});
  }
  return p;
}

struct FailureRig {
  explicit FailureRig(std::size_t nodes, const FailureModel& model,
                      std::vector<char> protected_nodes,
                      std::uint64_t rng_seed)
      : rig{grid(nodes), core::Algorithm::kOpportunistic} {
    std::vector<mac::MacBase*> macs;
    for (net::NodeId i = 0; i < rig.topology().node_count(); ++i) {
      macs.push_back(&rig.mac(i));
    }
    process = std::make_unique<FailureProcess>(rig.sim(), macs,
                                               std::move(protected_nodes),
                                               model, sim::Rng{rng_seed});
  }

  [[nodiscard]] std::size_t alive_count() {
    std::size_t n = 0;
    for (net::NodeId i = 0; i < rig.topology().node_count(); ++i) {
      if (rig.mac(i).alive()) ++n;
    }
    return n;
  }

  ProtocolRig rig;
  std::unique_ptr<FailureProcess> process;
};

FailureModel model_with(double fraction, double period_s = 10.0) {
  FailureModel m;
  m.enabled = true;
  m.fraction = fraction;
  m.period = sim::Time::seconds(period_s);
  return m;
}

TEST(FailureProcess, VictimsAreRevivedBeforeNewOnesAreDrawn) {
  // 12 nodes, 20% fraction → 2 victims/round. If the previous victims were
  // not revived before the new draw, the down population would accumulate
  // across rotations instead of staying at exactly the victim count.
  FailureRig f{12, model_with(0.2), std::vector<char>(12, 0), 7};
  for (int round = 1; round <= 8; ++round) {
    f.rig.run_until(10.0 * round + 1.0);
    EXPECT_EQ(f.process->rotations(), static_cast<std::uint64_t>(round));
    EXPECT_EQ(f.process->down_nodes().size(), 2u) << "round " << round;
    EXPECT_EQ(f.alive_count(), 10u) << "round " << round;
  }
}

TEST(FailureProcess, FullFractionKillsEveryEligibleEveryRound) {
  // With fraction 1.0 the victim quota covers the whole field; only the
  // protected nodes must survive, every round — which also proves last
  // round's victims re-entered the eligible pool.
  std::vector<char> prot(12, 0);
  prot[0] = 1;
  prot[11] = 1;
  FailureRig f{12, model_with(1.0), prot, 3};
  for (int round = 1; round <= 4; ++round) {
    f.rig.run_until(10.0 * round + 1.0);
    EXPECT_EQ(f.process->down_nodes().size(), 10u) << "round " << round;
    EXPECT_TRUE(f.rig.mac(0).alive());
    EXPECT_TRUE(f.rig.mac(11).alive());
    EXPECT_EQ(f.alive_count(), 2u) << "round " << round;
  }
}

TEST(FailureProcess, VictimChoiceIsDeterministicAcrossInstances) {
  // Same rng seed, same field → identical victim sequences, rotation by
  // rotation, across independent process instances.
  FailureRig a{16, model_with(0.25), std::vector<char>(16, 0), 99};
  FailureRig b{16, model_with(0.25), std::vector<char>(16, 0), 99};
  for (int round = 1; round <= 6; ++round) {
    a.rig.run_until(10.0 * round + 1.0);
    b.rig.run_until(10.0 * round + 1.0);
    EXPECT_EQ(a.process->down_nodes(), b.process->down_nodes())
        << "round " << round;
  }
  // A different stream picks a different sequence somewhere in 6 rounds.
  FailureRig c{16, model_with(0.25), std::vector<char>(16, 0), 100};
  bool any_diff = false;
  for (int round = 1; round <= 6; ++round) {
    c.rig.run_until(10.0 * round + 1.0);
    a.rig.run_until(10.0 * round + 1.0);  // idempotent: already past this time
    if (c.process->down_nodes() != a.process->down_nodes()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FailureProcess, RejectsAnEnabledModelItCannotRun) {
  // A zero period would rotate at the same instant forever; a fraction
  // outside [0, 1] would cast a negative or oversized victim count.
  for (const FailureModel& m :
       {model_with(0.2, 0.0), model_with(0.2, -1.0), model_with(-0.1),
        model_with(1.5),
        model_with(std::numeric_limits<double>::quiet_NaN())}) {
    EXPECT_THROW(FailureRig(12, m, std::vector<char>(12, 0), 1),
                 std::invalid_argument);
  }
  // The same values are harmless while the model is off.
  FailureModel off = model_with(-0.1, 0.0);
  off.enabled = false;
  EXPECT_NO_THROW(validate(off));
  FailureRig f{12, off, std::vector<char>(12, 0), 1};
  f.rig.run_until(5.0);
  EXPECT_EQ(f.process->rotations(), 0u);
}

TEST(FailureProcess, NoGenerationNotedWhileNodeIsDown) {
  // A live source generates (the collector counts it); a powered-down one
  // must not. The generation path early-outs on a dead MAC before noting.
  ProtocolRig rig{grid(4), core::Algorithm::kOpportunistic};
  rig.node(0).make_sink(rig.whole_field());
  rig.node(3).set_detecting(true);
  rig.start_all();
  rig.run_until(20.0);
  const std::uint64_t generated_live = rig.collector().distinct_generated();
  ASSERT_GT(generated_live, 0u);

  rig.mac(3).set_alive(false);
  rig.run_until(40.0);
  EXPECT_EQ(rig.collector().distinct_generated(), generated_live)
      << "a down node noted a generation";

  rig.mac(3).set_alive(true);
  rig.run_until(80.0);
  EXPECT_GT(rig.collector().distinct_generated(), generated_live)
      << "revived node never resumed generating";
}

}  // namespace
}  // namespace wsn::scenario
