// Unit tests for geometry, topology and field generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "net/field.hpp"
#include "net/topology.hpp"
#include "net/vec2.hpp"
#include "sim/random.hpp"

namespace wsn::net {
namespace {

TEST(Vec2, BasicOps) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {4, 5}), 25.0);
  EXPECT_EQ((a + Vec2{1, 1}), (Vec2{4, 5}));
  EXPECT_EQ((a - Vec2{1, 1}), (Vec2{2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{6, 8}));
}

TEST(Rect, Contains) {
  const Rect r{0, 0, 80, 80};
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({80, 80}));
  EXPECT_TRUE(r.contains({40, 40}));
  EXPECT_FALSE(r.contains({80.1, 40}));
  EXPECT_FALSE(r.contains({-0.1, 40}));
  EXPECT_DOUBLE_EQ(r.width(), 80.0);
  EXPECT_DOUBLE_EQ(r.height(), 80.0);
}

TEST(Rect, DistanceTo) {
  const Rect r{0, 0, 80, 80};
  EXPECT_DOUBLE_EQ(r.distance_to({40, 40}), 0.0);   // inside
  EXPECT_DOUBLE_EQ(r.distance_to({80, 80}), 0.0);   // on the corner
  EXPECT_DOUBLE_EQ(r.distance_to({90, 40}), 10.0);  // right of it
  EXPECT_DOUBLE_EQ(r.distance_to({40, -5}), 5.0);   // below it
  EXPECT_DOUBLE_EQ(r.distance_to({83, 84}), 5.0);   // diagonal (3,4,5)
}

TEST(Vec2, DistanceToSegment) {
  // Horizontal segment from (0,0) to (10,0).
  EXPECT_DOUBLE_EQ(distance_to_segment({5, 3}, {0, 0}, {10, 0}), 3.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({-3, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({13, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({5, 0}, {0, 0}, {10, 0}), 0.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(distance_to_segment({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(Topology, LineNeighbors) {
  // Nodes at x = 0, 30, 60, 90 with range 40: chain adjacency.
  Topology t{{{0, 0}, {30, 0}, {60, 0}, {90, 0}}, 40.0};
  EXPECT_EQ(t.node_count(), 4u);
  ASSERT_EQ(t.neighbors(0).size(), 1u);
  EXPECT_EQ(t.neighbors(0)[0], 1u);
  ASSERT_EQ(t.neighbors(1).size(), 2u);
  EXPECT_EQ(t.neighbors(1)[0], 0u);
  EXPECT_EQ(t.neighbors(1)[1], 2u);
  EXPECT_TRUE(t.in_range(0, 1));
  EXPECT_FALSE(t.in_range(0, 2));
  EXPECT_FALSE(t.in_range(2, 2));  // never its own neighbour
}

TEST(Topology, RangeIsExclusiveAtBoundary) {
  Topology t{{{0, 0}, {40, 0}}, 40.0};
  EXPECT_FALSE(t.in_range(0, 1));  // strictly-less-than range
  EXPECT_TRUE(t.neighbors(0).empty());
}

TEST(Topology, ConnectedAndHops) {
  Topology chain{{{0, 0}, {30, 0}, {60, 0}, {90, 0}}, 40.0};
  EXPECT_TRUE(chain.connected());
  EXPECT_EQ(chain.hop_distance(0, 3), 3);
  EXPECT_EQ(chain.hop_distance(0, 0), 0);

  Topology split{{{0, 0}, {30, 0}, {200, 0}}, 40.0};
  EXPECT_FALSE(split.connected());
  EXPECT_EQ(split.hop_distance(0, 2), -1);
}

TEST(Topology, AverageDegree) {
  Topology t{{{0, 0}, {10, 0}, {20, 0}}, 15.0};
  // 0-1 and 1-2 in range; 0-2 not. Degrees 1,2,1.
  EXPECT_DOUBLE_EQ(t.average_degree(), 4.0 / 3.0);
}

TEST(Topology, AudibleIsSupersetOfNeighbors) {
  Topology t{{{0, 0}, {50, 0}, {100, 0}}, 40.0, 88.0};
  // 0-1: 50m → audible only. 0-2: 100m → neither.
  EXPECT_TRUE(t.neighbors(0).empty());
  ASSERT_EQ(t.audible(0).size(), 1u);
  EXPECT_EQ(t.audible(0)[0], 1u);
  ASSERT_EQ(t.audible(1).size(), 2u);
  EXPECT_DOUBLE_EQ(t.carrier_sense_range(), 88.0);
}

TEST(Topology, DefaultCarrierSenseEqualsRange) {
  Topology t{{{0, 0}, {30, 0}}, 40.0};
  EXPECT_DOUBLE_EQ(t.carrier_sense_range(), 40.0);
  EXPECT_EQ(t.audible(0).size(), t.neighbors(0).size());
}

TEST(Topology, RejectsBadRangesInEveryBuildType) {
  const std::vector<Vec2> pts{{0, 0}, {30, 0}};
  EXPECT_THROW((Topology{pts, 0.0}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, -40.0}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  // Cells narrower than the radio range would hide decodable neighbours.
  EXPECT_THROW((Topology{pts, 40.0, 20.0}), std::invalid_argument);
  EXPECT_NO_THROW((Topology{pts, 40.0, 40.0}));
}

// Property: grid-accelerated neighbour lists match the O(n²) definition,
// on the paper's 200 m field (3 cells wide) and on a 1000 m one (12 cells),
// with the 88 m carrier-sense range and with CS 0 (= radio range), down to
// empty and single-node fields. Every reverse slot points back: entry k of
// reverse_slots(i) is where i sits in the list of its k-th neighbour.
class TopologyProperty
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t, double, double>> {};

TEST_P(TopologyProperty, MatchesBruteForce) {
  const auto [n, seed, side, cs] = GetParam();
  sim::Rng rng{seed};
  net::FieldSpec spec;
  spec.nodes = n;
  spec.side_m = side;
  spec.carrier_sense_range_m = cs;
  const auto pts = generate_uniform_field(spec, rng);
  const Topology t{pts, spec.radio_range_m, spec.carrier_sense_range_m};
  const double audible_range = cs > 0.0 ? cs : spec.radio_range_m;

  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> expected;
    std::vector<NodeId> expected_audible;
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const double d = distance(pts[i], pts[j]);
      if (d < spec.radio_range_m) expected.push_back(j);
      if (d < audible_range) expected_audible.push_back(j);
    }
    const auto got = t.neighbors(i);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
        << "node " << i;
    // audible(i) is partitioned, not globally sorted: the decodable prefix
    // is exactly neighbors(i), the carrier-sense-only tail is sorted by id,
    // and the whole list as a set matches the brute-force definition.
    const auto got_a = t.audible(i);
    ASSERT_EQ(t.decodable_prefix(i), got.size()) << "node " << i;
    ASSERT_EQ(std::vector<NodeId>(got_a.begin(),
                                  got_a.begin() +
                                      static_cast<std::ptrdiff_t>(got.size())),
              expected)
        << "node " << i;
    ASSERT_TRUE(std::is_sorted(
        got_a.begin() + static_cast<std::ptrdiff_t>(got.size()), got_a.end()))
        << "node " << i;
    std::vector<NodeId> got_a_sorted(got_a.begin(), got_a.end());
    std::sort(got_a_sorted.begin(), got_a_sorted.end());
    ASSERT_EQ(got_a_sorted, expected_audible) << "node " << i;

    const auto back = t.reverse_slots(i);
    ASSERT_EQ(back.size(), t.decodable_prefix(i)) << "node " << i;
    for (std::size_t k = 0; k < back.size(); ++k) {
      const auto theirs = t.neighbors(got[k]);
      ASSERT_LT(back[k], theirs.size()) << "node " << i << " slot " << k;
      ASSERT_EQ(theirs[back[k]], i) << "node " << i << " slot " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopologyProperty,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 50, 150),
                       ::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(200.0, 1000.0),
                       ::testing::Values(88.0, 0.0)));

TEST(Field, UniformFieldInsideSquare) {
  sim::Rng rng{21};
  FieldSpec spec;
  spec.nodes = 500;
  const auto pts = generate_uniform_field(spec, rng);
  ASSERT_EQ(pts.size(), 500u);
  for (const auto& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, spec.side_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, spec.side_m);
  }
}

TEST(Field, ConnectedFieldIsConnectedAtPaperDensities) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng{seed};
    FieldSpec spec;
    spec.nodes = 150;  // ≈19 neighbours: connected w.h.p.
    const GeneratedField field = generate_connected_topology(spec, rng);
    EXPECT_TRUE(field.connected) << "seed " << seed;
    EXPECT_TRUE(field.topology.connected()) << "seed " << seed;
    EXPECT_GE(field.attempts, 1) << "seed " << seed;
    EXPECT_DOUBLE_EQ(field.topology.carrier_sense_range(),
                     spec.carrier_sense_range_m);
  }
}

// The generator's topology is the one a caller would build from the
// positions-only wrapper, and both consume the same random draws.
TEST(Field, TopologyMatchesPositionsWrapper) {
  FieldSpec spec;
  spec.nodes = 120;
  sim::Rng rng_a{11};
  sim::Rng rng_b{11};
  const GeneratedField field = generate_connected_topology(spec, rng_a);
  const Topology rebuilt{generate_connected_field(spec, rng_b),
                         spec.radio_range_m, spec.carrier_sense_range_m};
  const Topology& t = field.topology;
  ASSERT_EQ(t.node_count(), rebuilt.node_count());
  EXPECT_EQ(t.positions(), rebuilt.positions());
  for (NodeId i = 0; i < t.node_count(); ++i) {
    ASSERT_EQ(t.decodable_prefix(i), rebuilt.decodable_prefix(i)) << i;
    const auto a = t.audible(i);
    const auto b = rebuilt.audible(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << i;
  }
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(Field, PaperDensityRangeMatchesNeighbourCounts) {
  // The paper: 50..350 nodes ↔ about 6 to 43 neighbours on average.
  sim::Rng rng{2};
  FieldSpec lo;
  lo.nodes = 50;
  const Topology tlo{generate_uniform_field(lo, rng), lo.radio_range_m};
  EXPECT_NEAR(tlo.average_degree(), 6.0, 3.0);

  FieldSpec hi;
  hi.nodes = 350;
  const Topology thi{generate_uniform_field(hi, rng), hi.radio_range_m};
  EXPECT_NEAR(thi.average_degree(), 43.0, 10.0);
}

}  // namespace
}  // namespace wsn::net
