#include "trees/models.hpp"

#include <algorithm>
#include <cassert>

namespace wsn::trees {
namespace {

/// Nodes whose position lies inside `rect`.
std::vector<Vertex> nodes_in_rect(const net::Topology& topo, net::Rect rect) {
  std::vector<Vertex> inside;
  for (net::NodeId i = 0; i < topo.node_count(); ++i) {
    if (rect.contains(topo.position(i))) inside.push_back(i);
  }
  return inside;
}

/// Picks `k` distinct entries from `pool` less `exclude`, in random order.
/// When those are fewer than k, tops up with the nodes nearest to the rect
/// centre, again skipping `exclude`.
std::vector<Vertex> pick_k(std::vector<Vertex> pool, std::size_t k,
                           const net::Topology& topo, net::Vec2 center,
                           const std::vector<Vertex>& exclude, sim::Rng& rng) {
  std::vector<char> skip(topo.node_count(), 0);
  for (Vertex v : exclude) skip[v] = 1;
  std::erase_if(pool, [&](Vertex v) { return skip[v] != 0; });
  if (pool.size() < k) {
    for (Vertex v : pool) skip[v] = 1;
    std::vector<Vertex> rest;
    for (net::NodeId i = 0; i < topo.node_count(); ++i) {
      if (!skip[i]) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(), [&](Vertex a, Vertex b) {
      return distance_sq(topo.position(a), center) <
             distance_sq(topo.position(b), center);
    });
    for (Vertex v : rest) {
      if (pool.size() >= k) break;
      pool.push_back(v);
    }
  }
  rng.shuffle(pool);
  pool.resize(std::min(k, pool.size()));
  return pool;
}

}  // namespace

AbstractInstance make_event_radius_instance(const net::Topology& topo,
                                            double sensing_radius,
                                            sim::Rng& rng) {
  assert(topo.node_count() > 0);
  // Field extent inferred from node positions.
  double max_x = 0.0, max_y = 0.0;
  for (const auto& p : topo.positions()) {
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const net::Vec2 event{rng.uniform(0.0, max_x), rng.uniform(0.0, max_y)};

  AbstractInstance inst;
  const double r_sq = sensing_radius * sensing_radius;
  for (net::NodeId i = 0; i < topo.node_count(); ++i) {
    if (distance_sq(topo.position(i), event) <= r_sq) {
      inst.sources.push_back(i);
    }
  }
  // Sink: random node that is not a source.
  std::vector<char> is_source(topo.node_count(), 0);
  for (Vertex s : inst.sources) is_source[s] = 1;
  std::vector<Vertex> candidates;
  for (net::NodeId i = 0; i < topo.node_count(); ++i) {
    if (!is_source[i]) candidates.push_back(i);
  }
  if (candidates.empty()) {
    inst.sink = 0;
    inst.sources.erase(
        std::remove(inst.sources.begin(), inst.sources.end(), Vertex{0}),
        inst.sources.end());
  } else {
    inst.sink = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  }
  return inst;
}

AbstractInstance make_random_sources_instance(const net::Topology& topo,
                                              std::size_t k, sim::Rng& rng) {
  assert(topo.node_count() > k);
  AbstractInstance inst;
  auto picks = rng.sample_indices(topo.node_count(), k + 1);
  inst.sink = static_cast<Vertex>(picks.back());
  picks.pop_back();
  for (auto p : picks) inst.sources.push_back(static_cast<Vertex>(p));
  return inst;
}

AbstractInstance make_corner_instance(const net::Topology& topo,
                                      std::size_t k, net::Rect source_rect,
                                      net::Rect sink_rect, sim::Rng& rng) {
  AbstractInstance inst;
  const net::Vec2 src_center{(source_rect.x0 + source_rect.x1) / 2,
                             (source_rect.y0 + source_rect.y1) / 2};
  const net::Vec2 sink_center{(sink_rect.x0 + sink_rect.x1) / 2,
                              (sink_rect.y0 + sink_rect.y1) / 2};
  inst.sources =
      pick_k(nodes_in_rect(topo, source_rect), k, topo, src_center, {}, rng);
  // The sink must not be one of the sources, in the rect or in the top-up.
  const auto sink_pick = pick_k(nodes_in_rect(topo, sink_rect), 1, topo,
                                sink_center, inst.sources, rng);
  inst.sink = sink_pick.empty() ? Vertex{0} : sink_pick.front();
  return inst;
}

}  // namespace wsn::trees
