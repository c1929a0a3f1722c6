// Unit tests for geometry, topology and field generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/chunk_masks.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "net/vec2.hpp"
#include "sim/random.hpp"

namespace wsn::net {
namespace {

constexpr ScanKernel kKernels[] = {ScanKernel::kScalar, ScanKernel::kSse2,
                                   ScanKernel::kAvx512};

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
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((Topology{pts, 0.0}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, -40.0}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, kNaN}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, kInf}), std::invalid_argument);
  // Cells narrower than the radio range would hide decodable neighbours,
  // and the grid cannot bin a non-finite carrier-sense width.
  EXPECT_THROW((Topology{pts, 40.0, 20.0}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, 40.0, kInf}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, 40.0, kNaN}), std::invalid_argument);
  EXPECT_THROW((Topology{pts, 40.0, -88.0}), std::invalid_argument);
  EXPECT_NO_THROW((Topology{pts, 40.0, 40.0}));
}

TEST(Topology, RejectsNonFinitePositionsInEveryBuildType) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const Vec2 bad : {Vec2{kNaN, 0}, Vec2{0, kNaN}, Vec2{kInf, 0},
                         Vec2{0, -kInf}}) {
    const std::vector<Vec2> pts{{0, 0}, bad, {30, 0}};
    try {
      const Topology t{pts, 40.0, 88.0};
      ADD_FAILURE() << "accepted (" << bad.x << ", " << bad.y << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("node 1"), std::string::npos)
          << e.what();
    }
  }
}

// Two nodes 1e12 m apart with a 1 m range would need 1e24 cells of the
// range's width; the cell cap widens them instead. Coordinates near the
// largest double still bin: their span overflows, their offsets do not.
// So does a range too small to halve.
TEST(Topology, FarApartNodesBuildWithoutAHugeGrid) {
  const Topology far{{{0, 0}, {1e12, 0}, {1e12 + 0.5, 0}}, 1.0};
  EXPECT_TRUE(far.neighbors(0).empty());
  ASSERT_EQ(far.neighbors(1).size(), 1u);
  EXPECT_EQ(far.neighbors(1)[0], 2u);
  EXPECT_FALSE(far.connected());

  constexpr double kBig = std::numeric_limits<double>::max();
  const Topology edge{{{-kBig, -kBig}, {kBig, kBig}, {kBig, kBig}}, 1.0};
  EXPECT_TRUE(edge.neighbors(0).empty());
  ASSERT_EQ(edge.neighbors(2).size(), 1u);
  EXPECT_EQ(edge.neighbors(2)[0], 1u);

  // The smallest positive range: half of it rounds to 0, the cell width
  // must not.
  const Topology tiny{{{0, 0}, {1, 1}, {1, 1}},
                      std::numeric_limits<double>::denorm_min()};
  EXPECT_EQ(tiny.average_degree(), 0.0);
}

// Cells 10 m wide (the range, no separate carrier-sense range) anchored at
// the bounding box's corner (0, 0): three columns and two rows, row-major.
// Each cell's members form one run, in ascending id.
TEST(Topology, CellOrderGroupsCellsInRowMajorOrder) {
  const Topology t{{{25, 15},
                    {1, 1},
                    {12, 14},
                    {0, 0},
                    {21, 3},
                    {13, 2},
                    {2, 12},
                    {11, 11},
                    {24, 5}},
                   10.0};
  const std::vector<NodeId> expected{1, 3,   // cell (0, 0)
                                     5,      // cell (1, 0)
                                     4, 8,   // cell (2, 0)
                                     6,      // cell (0, 1)
                                     2, 7,   // cell (1, 1)
                                     0};     // cell (2, 1)
  EXPECT_TRUE(std::ranges::equal(t.cell_order(), expected));
}

// On a paper-density field the order is a permutation of the ids that is
// not the id order, and the same positions give the same order.
TEST(Topology, CellOrderIsADeterministicPermutation) {
  sim::Rng rng{11};
  FieldSpec spec;
  spec.nodes = 350;
  const std::vector<Vec2> pts = generate_uniform_field(spec, rng);
  const Topology a{pts, spec.radio_range_m, spec.carrier_sense_range_m};
  const Topology b{pts, spec.radio_range_m, spec.carrier_sense_range_m};
  EXPECT_TRUE(std::ranges::equal(a.cell_order(), b.cell_order()));

  std::vector<NodeId> ids(a.cell_order().begin(), a.cell_order().end());
  EXPECT_FALSE(std::ranges::is_sorted(ids));
  std::ranges::sort(ids);
  for (NodeId i = 0; i < spec.nodes; ++i) ASSERT_EQ(ids[i], i);
}

// The O(n²) definition, with the constructor's own predicates
// (distance_sq < range², distance_sq < cs², i ≠ j). neighbors(i) is that
// list in id order; audible(i) is it followed by the carrier-sense-only
// nodes in id order. Every reverse slot points back: entry k of
// reverse_slots(i) is where i sits in the list of its k-th neighbour.
void expect_matches_brute_force(const std::vector<Vec2>& pts, double range,
                                double cs) {
  const Topology t{pts, range, cs};
  const double range_sq = range * range;
  const double audible_sq = cs > 0.0 ? cs * cs : range_sq;
  ASSERT_EQ(t.node_count(), pts.size());
  for (NodeId i = 0; i < pts.size(); ++i) {
    std::vector<NodeId> expected;
    std::vector<NodeId> cs_only;
    for (NodeId j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      const double d_sq = distance_sq(pts[i], pts[j]);
      if (d_sq < range_sq) {
        expected.push_back(j);
      } else if (d_sq < audible_sq) {
        cs_only.push_back(j);
      }
    }
    const auto got = t.neighbors(i);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
        << "node " << i;
    ASSERT_EQ(t.decodable_prefix(i), expected.size()) << "node " << i;
    expected.insert(expected.end(), cs_only.begin(), cs_only.end());
    const auto got_a = t.audible(i);
    ASSERT_EQ(std::vector<NodeId>(got_a.begin(), got_a.end()), expected)
        << "node " << i;

    const auto back = t.reverse_slots(i);
    ASSERT_EQ(back.size(), t.decodable_prefix(i)) << "node " << i;
    for (std::size_t k = 0; k < back.size(); ++k) {
      const auto theirs = t.neighbors(got[k]);
      ASSERT_LT(back[k], theirs.size()) << "node " << i << " slot " << k;
      ASSERT_EQ(theirs[back[k]], i) << "node " << i << " slot " << k;
    }
  }
}

// Random fields: the paper's 200 m field (3 cells wide) and a 1000 m one
// (12 cells), with the 88 m carrier-sense range and with CS 0 (= radio
// range), from empty and single-node fields up to the benchmark's 200 and
// 350 nodes.
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
  expect_matches_brute_force(generate_uniform_field(spec, rng),
                             spec.radio_range_m, cs);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopologyProperty,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 50, 150, 200,
                                                     350),
                       ::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(200.0, 1000.0),
                       ::testing::Values(88.0, 0.0)));

std::vector<Vec2> uniform_field(std::size_t n, double side, std::uint64_t seed) {
  sim::Rng rng{seed};
  net::FieldSpec spec;
  spec.nodes = n;
  spec.side_m = side;
  return generate_uniform_field(spec, rng);
}

TEST(TopologyBruteForce, NegativeAndOffsetCoordinates) {
  for (const Vec2 shift : {Vec2{-100.3, -100.7}, Vec2{-1e4 - 0.1, 3e5 + 0.3},
                           Vec2{-7.5e6, -2.25e6}}) {
    std::vector<Vec2> pts = uniform_field(150, 200.0, 4);
    for (Vec2& p : pts) p = p + shift;
    expect_matches_brute_force(pts, 40.0, 88.0);
    expect_matches_brute_force(pts, 40.0, 0.0);
  }
}

TEST(TopologyBruteForce, CoLocatedNodes) {
  std::vector<Vec2> pts(6, Vec2{50, 50});
  pts.insert(pts.end(), 4, Vec2{130, 50});
  pts.push_back({90, 50});
  const std::vector<Vec2> rest = uniform_field(40, 200.0, 5);
  pts.insert(pts.end(), rest.begin(), rest.end());
  pts.insert(pts.end(), 3, rest.front());
  expect_matches_brute_force(pts, 40.0, 88.0);
  expect_matches_brute_force(pts, 40.0, 0.0);
}

// Pairs exactly at the radio range and at the carrier-sense range, along
// both axes and on 3-4-5 diagonals: both are outside (strict inequality).
TEST(TopologyBruteForce, NodesExactlyAtRangeAndCarrierSense) {
  std::vector<Vec2> pts;
  for (const Vec2 base : {Vec2{0, 0}, Vec2{300, 0}, Vec2{0, 300}}) {
    for (const Vec2 d : {Vec2{40, 0}, Vec2{0, 40}, Vec2{24, 32},
                         Vec2{88, 0}, Vec2{0, -88}, Vec2{-52.8, 70.4},
                         Vec2{std::nextafter(40.0, 0.0), 0},
                         Vec2{std::nextafter(88.0, 0.0), 0}}) {
      pts.push_back(base);
      pts.push_back(base + d);
    }
  }
  const Topology t{{{0, 0}, {40, 0}, {88, 0}}, 40.0, 88.0};
  EXPECT_TRUE(t.neighbors(0).empty());
  ASSERT_EQ(t.audible(0).size(), 1u);
  EXPECT_EQ(t.audible(0)[0], 1u);
  expect_matches_brute_force(pts, 40.0, 88.0);
  expect_matches_brute_force(pts, 40.0, 0.0);
}

// A lattice at the cell width from the bounding box's corner, with the
// nearest doubles on both sides of every lattice coordinate.
TEST(TopologyBruteForce, NodesOnCellEdges) {
  for (const double cs : {88.0, 40.0}) {
    std::vector<Vec2> pts;
    for (int gx = 0; gx <= 4; ++gx) {
      for (int gy = 0; gy <= 4; ++gy) {
        const double x = -150.0 + cs * gx;
        const double y = 20.0 + cs * gy;
        pts.push_back({x, y});
        pts.push_back({std::nextafter(x, -1e9), y});
        pts.push_back({x, std::nextafter(y, 1e9)});
      }
    }
    expect_matches_brute_force(pts, 40.0, cs);
  }
}

TEST(TopologyBruteForce, EveryNodeInOneCell) {
  expect_matches_brute_force(uniform_field(60, 10.0, 6), 40.0, 88.0);
  expect_matches_brute_force(uniform_field(60, 30.0, 7), 40.0, 0.0);
}

// Clusters scattered over a 1e6 m square: range-wide cells would number
// 1e8, so the cell cap widens them.
TEST(TopologyBruteForce, FarSpreadSparseFieldTriggersCellCap) {
  sim::Rng rng{8};
  std::vector<Vec2> pts;
  for (int c = 0; c < 60; ++c) {
    const Vec2 centre{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)};
    for (int k = 0; k < 5; ++k) {
      pts.push_back(centre + Vec2{rng.uniform(0.0, 100.0),
                                  rng.uniform(0.0, 100.0)});
    }
  }
  expect_matches_brute_force(pts, 40.0, 88.0);
  expect_matches_brute_force(pts, 40.0, 0.0);
}

// Rectangular fields whose 3×3 blocks are clipped at every edge: at the
// 88 m carrier-sense range, one row of cells, two rows, and three columns
// of many rows.
TEST(TopologyBruteForce, StripAndClippedBlocks) {
  for (const Vec2 size : {Vec2{3000, 60}, Vec2{3000, 150}, Vec2{200, 3000}}) {
    sim::Rng rng{10};
    std::vector<Vec2> pts(400);
    for (Vec2& p : pts) {
      p = {rng.uniform(0.0, size.x), rng.uniform(0.0, size.y)};
    }
    expect_matches_brute_force(pts, 40.0, 88.0);
    expect_matches_brute_force(pts, 40.0, 0.0);
  }
}

// k nodes in a 4 m square, so in one cell: alone, the cell's block is
// exactly k members, which fill its last mask chunk by one member, exactly,
// or all but one. Then with a ring around the square whose ids interleave
// with its nodes': at 30, 60, 85 and 150 m from its centre, so decodable,
// carrier-sense-only, at the edge and out of range.
TEST(TopologyBruteForce, BlocksAtChunkBoundaries) {
  for (const std::size_t k : {1, 2, 63, 64, 65, 127, 128, 129}) {
    sim::Rng rng{12 + k};
    const Vec2 centre{500.3, -20.7};
    std::vector<Vec2> cell;
    std::vector<Vec2> ringed;
    for (std::size_t c = 0; c < k; ++c) {
      cell.push_back(centre + Vec2{rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0)});
      ringed.push_back(cell.back());
      if (c % 4 == 0 || c + 1 == k) {
        for (const double r : {30.0, 60.0, 85.0, 150.0}) {
          const double angle = rng.uniform(0.0, 6.283);
          ringed.push_back(centre + Vec2{std::cos(angle), std::sin(angle)} * r);
        }
      }
    }
    for (const double cs : {88.0, 0.0}) {
      expect_matches_brute_force(cell, 40.0, cs);
      expect_matches_brute_force(ringed, 40.0, cs);
    }
  }
}

TEST(TopologyBruteForce, TwoThousandNodes) {
  expect_matches_brute_force(uniform_field(2000, 600.0, 9), 40.0, 88.0);
}

// Every body this CPU runs (scalar, SSE2 on x86-64, AVX-512 where CPUID
// reports avx512f) against the portable one, bit for bit, on random chunks
// drawn from the hard cases: members exactly at the radio range and at the
// carrier-sense range with the nearest doubles on both sides, at zero
// distance, at ±DBL_MAX (differences overflow to inf) and in +inf padding
// lanes, with a denorm_min range (range² rounds to 0) and an overflowing
// one. The AVX-512 body goes last, so a CPU without it skips only it.
TEST(ChunkMasks, EveryBodyMatchesScalarBody) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<Vec2> offsets{{0, 0}, {24, 32}, {-52.8, 70.4}, {kTiny, 0}};
  for (const double r : {40.0, 88.0}) {
    for (const double d : {std::nextafter(r, 0.0), r, std::nextafter(r, kInf)}) {
      offsets.insert(offsets.end(), {{d, 0}, {0, -d}, {-d, 0}, {0, d}});
    }
  }
  struct Case {
    Vec2 p;
    double range_sq, cs_sq;
  };
  const Case cases[] = {{{0, 0}, 1600, 7744},
                        {{0, 0}, 1600, 1600},
                        {{300, -300}, 1600, 7744},
                        {{kMax, -kMax}, 1600, 7744},
                        {{0, 0}, kTiny * kTiny, kTiny * kTiny},
                        {{0, 0}, kTiny, 1600},
                        {{-kMax, 0}, kMax * kMax, kMax * kMax}};
  for (const ScanKernel kernel : kKernels) {
    if (!kernel_runs(kernel)) {
      if (kernel == ScanKernel::kAvx512) {
        GTEST_SKIP() << "no avx512f on this CPU: the AVX-512 body is unchecked";
      }
      continue;
    }
    SCOPED_TRACE(kernel_name(kernel));
    sim::Rng rng{11};
    std::array<double, kChunk> xs{};
    std::array<double, kChunk> ys{};
    for (const Case& c : cases) {
      for (int trial = 0; trial < 300; ++trial) {
        for (std::size_t k = 0; k < kChunk; ++k) {
          const auto pick = rng.uniform_int(0, 3);
          Vec2 q = c.p + Vec2{rng.uniform(-100.0, 100.0),
                              rng.uniform(-100.0, 100.0)};
          if (pick == 0) {
            q = c.p + offsets[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(offsets.size()) - 1))];
          } else if (pick == 1) {
            q = {rng.chance(0.5) ? kMax : -kMax,
                 rng.chance(0.5) ? kMax : -kMax};
          } else if (pick == 2) {
            q = {kInf, kInf};
          }
          xs[k] = q.x;
          ys[k] = q.y;
        }
        const ChunkMasks want = chunk_masks_scalar(c.p, xs.data(), ys.data(),
                                                   c.range_sq, c.cs_sq);
        const ChunkMasks got = chunk_masks(kernel, c.p, xs.data(), ys.data(),
                                           c.range_sq, c.cs_sq);
        ASSERT_EQ(got.decodable, want.decodable) << "trial " << trial;
        ASSERT_EQ(got.audible, want.audible) << "trial " << trial;
      }
    }

    // The bits mean what they say: zero distance is in range, exactly at a
    // range is out, the next double in is in, and padding is never in.
    xs.fill(kInf);
    ys.fill(kInf);
    for (const auto& [k, x] :
         {std::pair<std::size_t, double>{0, 0.0}, {1, 40.0},
          {2, std::nextafter(40.0, 0.0)}, {3, 88.0},
          {63, std::nextafter(88.0, 0.0)}}) {
      xs[k] = x;
      ys[k] = 0.0;
    }
    const ChunkMasks m =
        chunk_masks(kernel, {0, 0}, xs.data(), ys.data(), 1600, 7744);
    EXPECT_EQ(m.decodable, 0b101u);
    EXPECT_EQ(m.audible, 0b111u | (std::uint64_t{1} << 63));
  }
}

// Each kernel's list writer against a plain bit walk. One chunk, its bits
// decodable: empty and full masks, one lane alone and all but one lane at
// the edges of the 16-member steps (0, 15, 16, 63), and random masks, into
// a buffer whose guard past the expected end must stay untouched. Then a
// 128-member block, alternately decodable and carrier-sense-only from the
// scanning node, its own index at those lanes and at 64 and 127:
// mask_block clears its bit, and write_list fills a list sized exactly,
// whose last entry is the block's last selected member.
TEST(ChunkMasks, CompactionMatchesBitWalk) {
  constexpr NodeId kGuard = 0xdeadbeef;
  std::array<NodeId, 2 * kChunk> ids{};
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ids[k] = static_cast<NodeId>(3 * k + 1);
  }
  std::vector<std::uint64_t> patterns{0, ~std::uint64_t{0}};
  for (const std::size_t lane : {0, 15, 16, 63}) {
    patterns.push_back(~(std::uint64_t{1} << lane));
    patterns.push_back(std::uint64_t{1} << lane);
  }
  sim::Rng rng{13};
  for (int r = 0; r < 200; ++r) patterns.push_back(rng.next());
  for (const ScanKernel kernel : kKernels) {
    if (!kernel_runs(kernel)) {
      if (kernel == ScanKernel::kAvx512) {
        GTEST_SKIP() << "no avx512f on this CPU: the AVX-512 compaction is "
                        "unchecked";
      }
      continue;
    }
    SCOPED_TRACE(kernel_name(kernel));
    for (const std::uint64_t bits : patterns) {
      std::vector<NodeId> want;
      for (std::size_t k = 0; k < kChunk; ++k) {
        if ((bits >> k) & 1) want.push_back(ids[k]);
      }
      std::vector<NodeId> got(want.size() + kChunk, kGuard);
      const ChunkMasks m{bits, bits};
      write_list(kernel, {ids.data(), nullptr, nullptr, 1, 0}, &m, got.data());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << std::hex << bits;
      EXPECT_TRUE(std::all_of(got.begin() + static_cast<std::ptrdiff_t>(
                                                 want.size()),
                              got.end(), [](NodeId j) { return j == kGuard; }))
          << std::hex << bits;
    }

    std::array<double, 2 * kChunk> xs{};
    const std::array<double, 2 * kChunk> ys{};
    for (std::size_t k = 1; k < xs.size(); k += 2) xs[k] = 60.0;
    for (const std::size_t own : {0, 15, 16, 63, 64, 127}) {
      const ScanBlock b{ids.data(), xs.data(), ys.data(), 2, own};
      std::array<ChunkMasks, 2> masks{};
      const ListSizes sizes =
          mask_block(kernel, {xs[own], 0}, b, 1600, 7744, masks.data());
      std::vector<NodeId> want;
      for (const std::size_t parity : {own % 2, 1 - own % 2}) {
        for (std::size_t k = parity; k < ids.size(); k += 2) {
          if (k != own) want.push_back(ids[k]);
        }
      }
      ASSERT_EQ(sizes.decodable, kChunk - 1) << "own " << own;
      ASSERT_EQ(sizes.audible, want.size()) << "own " << own;
      std::vector<NodeId> list(sizes.audible);
      write_list(kernel, b, masks.data(), list.data());
      EXPECT_EQ(list, want) << "own " << own;
    }
  }
}

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
