#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "sim/audit.hpp"

namespace wsn::net {
namespace {

// Grid cell key for spatial binning.
std::int64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (cx << 32) ^ (cy & 0xffffffff);
}

}  // namespace

Topology::Topology(std::vector<Vec2> positions, double radio_range,
                   double carrier_sense_range)
    : positions_{std::move(positions)},
      range_{radio_range},
      cs_range_{carrier_sense_range > 0.0 ? carrier_sense_range : radio_range} {
  // Checked in every build type: a zero range divides by zero in cell_of,
  // and cells narrower than the radio range hide decodable neighbours.
  if (!(std::isfinite(range_) && range_ > 0.0) || cs_range_ < range_) {
    throw std::invalid_argument{
        "Topology: need a finite radio range > 0 and a CS range of 0 or >= it"};
  }
  const std::size_t n = positions_.size();
  audible_lists_.resize(n);
  slot_offsets_.assign(n + 1, 0);
  if (n == 0) return;

  // Bin nodes into cs_range×cs_range cells; audible nodes can only be in
  // the 3×3 block of cells around a node's cell.
  std::unordered_map<std::int64_t, std::vector<NodeId>> grid;
  grid.reserve(n);
  auto cell_of = [this](Vec2 p) {
    return std::pair{static_cast<std::int64_t>(std::floor(p.x / cs_range_)),
                     static_cast<std::int64_t>(std::floor(p.y / cs_range_))};
  };
  for (NodeId i = 0; i < n; ++i) {
    const auto [cx, cy] = cell_of(positions_[i]);
    grid[cell_key(cx, cy)].push_back(i);
  }

  const double range_sq = range_ * range_;
  const double cs_sq = cs_range_ * cs_range_;
  std::vector<NodeId> decodable;  // in radio range, rebuilt per node
  std::vector<NodeId> cs_only;    // audible but not decodable, likewise
  for (NodeId i = 0; i < n; ++i) {
    decodable.clear();
    cs_only.clear();
    const auto [cx, cy] = cell_of(positions_[i]);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        auto it = grid.find(cell_key(cx + dx, cy + dy));
        if (it == grid.end()) continue;
        for (NodeId j : it->second) {
          if (j == i) continue;
          const double d_sq = distance_sq(positions_[i], positions_[j]);
          if (d_sq < range_sq) {
            decodable.push_back(j);
          } else if (d_sq < cs_sq) {
            cs_only.push_back(j);
          }
        }
      }
    }
    // audible(i) is partitioned: decodable prefix (== neighbors(i), sorted
    // by id) followed by carrier-sense-only nodes, sorted by id.
    std::sort(decodable.begin(), decodable.end());
    std::sort(cs_only.begin(), cs_only.end());
    slot_offsets_[i + 1] = slot_offsets_[i] + decodable.size();
    decodable.insert(decodable.end(), cs_only.begin(), cs_only.end());
    audible_lists_[i].assign(decodable.begin(), decodable.end());  // exact size
  }

  // Reverse slots in one pass, no search: receivers r in ascending id meet
  // each sender s in the order r appears in neighbors(s), so a cursor per
  // sender is r's position there. The lists are symmetric (unit disk), so
  // every cursor ends at its sender's degree.
  reverse_slots_.resize(slot_offsets_[n]);
  std::vector<std::uint32_t> cursor(n, 0);
  for (NodeId r = 0; r < n; ++r) {
    const auto nbrs = neighbors(r);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId s = nbrs[k];
      WSN_AUDIT_CHECK(cursor[s] < decodable_prefix(s) &&
                          neighbors(s)[cursor[s]] == r,
                      "neighbour lists are not symmetric");
      reverse_slots_[slot_offsets_[r] + k] = cursor[s]++;
    }
  }
#if WSN_AUDIT_ENABLED
  for (NodeId s = 0; s < n; ++s) {
    WSN_AUDIT_CHECK(cursor[s] == decodable_prefix(s),
                    "reverse slots do not cover a neighbour list");
  }
#endif
}

bool Topology::in_range(NodeId a, NodeId b) const {
  if (a == b) return false;
  return distance_sq(positions_[a], positions_[b]) < range_ * range_;
}

double Topology::average_degree() const {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(slot_offsets_.back()) /
         static_cast<double>(positions_.size());
}

bool Topology::connected() const {
  if (positions_.empty()) return true;
  std::vector<char> seen(positions_.size(), 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == positions_.size();
}

int Topology::hop_distance(NodeId from, NodeId to) const {
  if (from == to) return 0;
  std::vector<int> dist(positions_.size(), -1);
  std::queue<NodeId> q;
  q.push(from);
  dist[from] = 0;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : neighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        if (v == to) return dist[v];
        q.push(v);
      }
    }
  }
  return -1;
}

}  // namespace wsn::net
