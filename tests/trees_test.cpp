// Unit + property tests for the aggregation-tree algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "net/field.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "trees/aggregation_trees.hpp"
#include "trees/graph.hpp"
#include "trees/models.hpp"

namespace wsn::trees {
namespace {

/// 3×3 grid graph, unit weights, vertices numbered row-major:
///   0 1 2
///   3 4 5
///   6 7 8
Graph grid3() {
  Graph g{9};
  for (Vertex r = 0; r < 3; ++r) {
    for (Vertex c = 0; c < 3; ++c) {
      const Vertex v = r * 3 + c;
      if (c + 1 < 3) g.add_edge(v, v + 1, 1.0);
      if (r + 1 < 3) g.add_edge(v, v + 3, 1.0);
    }
  }
  return g;
}

TEST(Dijkstra, DistancesOnGrid) {
  const auto g = grid3();
  const auto sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[4], 2.0);
  EXPECT_DOUBLE_EQ(sp.dist[8], 4.0);
  // Parent chain from 8 reaches 0 in exactly 4 hops.
  int hops = 0;
  for (Vertex v = 8; v != 0; v = sp.parent[v]) ++hops;
  EXPECT_EQ(hops, 4);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g{3};
  g.add_edge(0, 1, 1.0);
  const auto sp = dijkstra(g, 0);
  EXPECT_TRUE(std::isinf(sp.dist[2]));
  EXPECT_EQ(sp.parent[2], kNoVertex);
}

TEST(Dijkstra, MultiSourceTakesNearestSeed) {
  const auto g = grid3();
  const Vertex seeds[] = {0, 8};
  const auto sp = dijkstra_multi(g, seeds);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);  // near 0
  EXPECT_DOUBLE_EQ(sp.dist[7], 1.0);  // near 8
  EXPECT_DOUBLE_EQ(sp.dist[4], 2.0);
}

TEST(Trees, SptSharesCommonPrefixes) {
  // Sink 0; sources 2 and 8. SPT = union of two shortest paths.
  const auto g = grid3();
  const Vertex sources[] = {2, 8};
  const auto t = shortest_path_tree(g, 0, sources);
  EXPECT_TRUE(t.feasible);
  // Path to 2 has 2 edges; path to 8 has 4; overlap depends on tie-breaks
  // but the result must be between max(4) and 6 edges.
  EXPECT_GE(t.edges.size(), 4u);
  EXPECT_LE(t.edges.size(), 6u);
  EXPECT_DOUBLE_EQ(t.total_weight, static_cast<double>(t.edges.size()));
}

TEST(Trees, GitGraftsAtClosestPoint) {
  // Line: 0-1-2-3-4 plus 5 hanging off 2. Sink 0, sources 4 then 5.
  Graph g{6};
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(2, 5, 1.0);
  const Vertex sources[] = {4, 5};
  const auto t = greedy_incremental_tree(g, 0, sources);
  EXPECT_TRUE(t.feasible);
  // First source: path 0-1-2-3-4 (4 edges); second grafts at 2 (+1 edge).
  EXPECT_DOUBLE_EQ(t.total_weight, 5.0);
  EXPECT_TRUE(t.edges.contains({2, 5}));
}

TEST(Trees, GitNeverWorseThanDisjointPaths) {
  const auto g = grid3();
  const Vertex sources[] = {2, 6, 8};
  const auto git = greedy_incremental_tree(g, 0, sources);
  const auto sp = dijkstra(g, 0);
  double disjoint = 0.0;
  for (Vertex s : sources) disjoint += sp.dist[s];
  EXPECT_LE(git.total_weight, disjoint);
}

TEST(Trees, SteinerExactOnKnownInstance) {
  // Star-ish: terminals 2, 6, 8 + sink 0 on the grid; the optimal Steiner
  // tree uses the centre. Known optimum: 0-1,1-2,1-4,4-7,7-6,7-8 = 6? Check
  // by construction: connecting {0,2,6,8} needs at least 6 unit edges.
  const auto g = grid3();
  const Vertex sources[] = {2, 6, 8};
  const auto st = steiner_tree_exact(g, 0, sources);
  EXPECT_TRUE(st.feasible);
  EXPECT_DOUBLE_EQ(st.total_weight, 6.0);
}

TEST(Trees, SteinerSingleTerminalIsEmpty) {
  const auto g = grid3();
  const auto st = steiner_tree_exact(g, 0, {});
  EXPECT_TRUE(st.feasible);
  EXPECT_TRUE(st.edges.empty());
}

TEST(Trees, SteinerInfeasibleWhenDisconnected) {
  Graph g{3};
  g.add_edge(0, 1, 1.0);
  const Vertex sources[] = {2};
  EXPECT_FALSE(steiner_tree_exact(g, 0, sources).feasible);
  EXPECT_FALSE(shortest_path_tree(g, 0, sources).feasible);
  EXPECT_FALSE(greedy_incremental_tree(g, 0, sources).feasible);
}

TEST(Trees, DuplicateSourcesHandled) {
  const auto g = grid3();
  const Vertex sources[] = {8, 8, 8};
  const auto git = greedy_incremental_tree(g, 0, sources);
  EXPECT_DOUBLE_EQ(git.total_weight, 4.0);
  const auto st = steiner_tree_exact(g, 0, sources);
  EXPECT_DOUBLE_EQ(st.total_weight, 4.0);
}

/// Checks a Tree is acyclic & connected over its own vertex set by union-find.
bool is_forest(const Tree& t) {
  std::map<Vertex, Vertex> parent;
  std::function<Vertex(Vertex)> find = [&](Vertex v) {
    auto it = parent.find(v);
    if (it == parent.end() || it->second == v) return v;
    return it->second = find(it->second);
  };
  for (const auto& [u, v] : t.edges) {
    const Vertex ru = find(u), rv = find(v);
    if (ru == rv) return false;  // cycle
    parent[ru] = rv;
    parent.try_emplace(u, rv);
    parent.try_emplace(v, rv);
  }
  return true;
}

// Property suite over random unit-disk fields:
//  * SPT, GIT, Steiner are forests,
//  * Steiner optimum <= GIT <= 2·(1 − 1/ℓ)·optimum (Takahashi–Matsuyama),
//  * Steiner optimum <= SPT.
class TreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeProperty, BoundsOnRandomFields) {
  sim::Rng rng{GetParam()};
  net::FieldSpec spec;
  spec.nodes = 60;
  spec.side_m = 150.0;
  const net::Topology topo =
      net::generate_connected_topology(spec, rng).topology;
  const Graph g = graph_from_topology(topo);

  auto inst = make_random_sources_instance(topo, 5, rng);
  const auto spt = shortest_path_tree(g, inst.sink, inst.sources);
  const auto git = greedy_incremental_tree(g, inst.sink, inst.sources);
  const auto opt = steiner_tree_exact(g, inst.sink, inst.sources);
  ASSERT_TRUE(spt.feasible);
  ASSERT_TRUE(git.feasible);
  ASSERT_TRUE(opt.feasible);

  EXPECT_TRUE(is_forest(spt));
  EXPECT_TRUE(is_forest(git));
  EXPECT_TRUE(is_forest(opt));

  EXPECT_LE(opt.total_weight, git.total_weight + 1e-9);
  EXPECT_LE(opt.total_weight, spt.total_weight + 1e-9);
  const double l = 6.0;  // terminals = 5 sources + sink
  EXPECT_LE(git.total_weight, 2.0 * (1.0 - 1.0 / l) * opt.total_weight + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Trees, WeightedGraphShortestPaths) {
  // Weighted triangle + tail: 0-1 (5), 0-2 (1), 2-1 (1), 1-3 (2).
  Graph g{4};
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(1, 3, 2.0);
  const auto sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 2.0);  // via 2, not the direct 5-edge
  EXPECT_DOUBLE_EQ(sp.dist[3], 4.0);
  EXPECT_EQ(sp.parent[1], 2u);
}

TEST(Trees, GitOnWeightedGraphPrefersCheapGraft) {
  // Trunk 0-1-2 with weights 1; source A=3 via 2 (w=1); source B=4 can
  // reach the tree at 2 for weight 1.5 or go directly to 0 for weight 2.2.
  Graph g{5};
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(2, 4, 1.5);
  g.add_edge(0, 4, 2.2);
  const Vertex sources[] = {3, 4};
  const auto git = greedy_incremental_tree(g, 0, sources);
  EXPECT_TRUE(git.edges.contains({2, 4}));
  EXPECT_FALSE(git.edges.contains({0, 4}));
  EXPECT_DOUBLE_EQ(git.total_weight, 4.5);

  // The SPT, by contrast, routes B over its own shortest path (2.2 < 3.5).
  const auto spt = shortest_path_tree(g, 0, sources);
  EXPECT_TRUE(spt.edges.contains({0, 4}));
  EXPECT_DOUBLE_EQ(spt.total_weight, 3.0 + 2.2);
}

TEST(Trees, SteinerExactOnWeightedGraph) {
  // Star centre 4 connects terminals 0..3 with weight 1 each; pairwise
  // terminal edges cost 1.9. Optimal Steiner tree uses the centre (4 x 1).
  Graph g{5};
  for (Vertex t = 0; t < 4; ++t) g.add_edge(t, 4, 1.0);
  g.add_edge(0, 1, 1.9);
  g.add_edge(1, 2, 1.9);
  g.add_edge(2, 3, 1.9);
  const Vertex sources[] = {1, 2, 3};
  const auto st = steiner_tree_exact(g, 0, sources);
  EXPECT_DOUBLE_EQ(st.total_weight, 4.0);
  for (Vertex t = 0; t < 4; ++t) EXPECT_TRUE(st.edges.contains({t, 4}));
}

TEST(Models, EventRadiusSourcesAreWithinRadius) {
  sim::Rng rng{5};
  net::FieldSpec spec;
  spec.nodes = 120;
  const auto pts = net::generate_uniform_field(spec, rng);
  const net::Topology topo{pts, spec.radio_range_m};
  for (int i = 0; i < 20; ++i) {
    const auto inst = make_event_radius_instance(topo, 30.0, rng);
    EXPECT_LT(inst.sink, topo.node_count());
    for (Vertex s : inst.sources) {
      EXPECT_NE(s, inst.sink);
      // All pairs of sources are within one sensing diameter.
      for (Vertex t : inst.sources) {
        EXPECT_LE(distance(topo.position(s), topo.position(t)), 60.0 + 1e-9);
      }
    }
  }
}

TEST(Models, RandomSourcesAreDistinctAndExcludeSink) {
  sim::Rng rng{6};
  net::FieldSpec spec;
  spec.nodes = 80;
  const net::Topology topo{net::generate_uniform_field(spec, rng),
                           spec.radio_range_m};
  for (int i = 0; i < 20; ++i) {
    const auto inst = make_random_sources_instance(topo, 10, rng);
    EXPECT_EQ(inst.sources.size(), 10u);
    std::set<Vertex> s(inst.sources.begin(), inst.sources.end());
    EXPECT_EQ(s.size(), 10u);
    EXPECT_FALSE(s.contains(inst.sink));
  }
}

TEST(Models, CornerInstanceRespectsRects) {
  sim::Rng rng{7};
  net::FieldSpec spec;
  spec.nodes = 200;
  const net::Topology topo{net::generate_uniform_field(spec, rng),
                           spec.radio_range_m};
  const net::Rect src_rect{0, 0, 80, 80};
  const net::Rect sink_rect{164, 164, 200, 200};
  const auto inst = make_corner_instance(topo, 5, src_rect, sink_rect, rng);
  EXPECT_EQ(inst.sources.size(), 5u);
  for (Vertex s : inst.sources) {
    EXPECT_TRUE(src_rect.contains(topo.position(s)));
  }
  EXPECT_TRUE(sink_rect.contains(topo.position(inst.sink)));
}

TEST(Models, CornerInstanceFallsBackWhenRectSparse) {
  // Only 3 nodes total; ask for 5 sources: fallback fills from nearest.
  sim::Rng rng{8};
  const net::Topology topo{{{10, 10}, {100, 100}, {190, 190}}, 40.0};
  const auto inst = make_corner_instance(topo, 2, {0, 0, 20, 20},
                                         {180, 180, 200, 200}, rng);
  EXPECT_EQ(inst.sources.size(), 2u);
  EXPECT_LT(inst.sink, topo.node_count());
}

TEST(Models, CornerInstanceSinkFallbackSkipsSources) {
  // The sink rect holds only node 0. Whenever node 0 is drawn as a source
  // the sink pool is empty, and the nearest-node top-up must pass over the
  // sources to the one node left.
  const net::Topology topo{{{190, 190}, {10, 10}, {20, 20}}, 40.0};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng{seed};
    const auto inst = make_corner_instance(topo, 2, {0, 0, 200, 200},
                                           {164, 164, 200, 200}, rng);
    ASSERT_EQ(inst.sources.size(), 2u);
    EXPECT_EQ(std::count(inst.sources.begin(), inst.sources.end(), inst.sink),
              0)
        << "seed " << seed;
  }
}

TEST(GraphFromTopology, UnitWeightsAndSymmetry) {
  const net::Topology topo{{{0, 0}, {30, 0}, {60, 0}}, 40.0};
  const Graph g = graph_from_topology(topo);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  ASSERT_EQ(g.adjacent(1).size(), 2u);
  for (const auto& e : g.adjacent(1)) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

}  // namespace
}  // namespace wsn::trees
