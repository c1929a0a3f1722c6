#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/audit.hpp"

namespace wsn::net {
namespace {

/// Nodes binned by a counting sort into a row-major grid of square cells,
/// anchored at the positions' bounding box. Cells are at least `width`
/// wide, so every node within `width` of a node lies in the 3×3 block
/// around its cell; each row of that block is one contiguous run of
/// members, stored as ids (ascending within a cell) and positions.
class CellGrid {
 public:
  CellGrid(const std::vector<Vec2>& positions, double width) {
    const std::size_t n = positions.size();
    Vec2 lo = positions[0];
    Vec2 hi = positions[0];
    for (const Vec2 p : positions) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    // Offsets are taken at half scale, which keeps them finite for any two
    // finite coordinates (denorm_min keeps a subnormal width from halving
    // to 0). The margin keeps index rounding from splitting a pair the
    // distance test accepts across two cell boundaries.
    const auto offset = [lo](Vec2 p) {
      return Vec2{0.5 * p.x - 0.5 * lo.x, 0.5 * p.y - 0.5 * lo.y};
    };
    const Vec2 span = offset(hi);
    double half_width = std::max(0.5 * width * (1.0 + 1e-6),
                                 std::numeric_limits<double>::denorm_min());
    const auto cells = [&half_width](double s) {
      return std::floor(s / half_width) + 1.0;
    };
    // At most n cells: wider cells still cover the disk, so the cap keeps a
    // sparse far-flung field from allocating a grid larger than the field.
    while (cells(span.x) * cells(span.y) > static_cast<double>(n)) {
      half_width *= 2.0;
    }
    nx_ = static_cast<std::size_t>(cells(span.x));
    ny_ = static_cast<std::size_t>(cells(span.y));
    const std::size_t cell_count = nx_ * ny_;

    cell_of_.resize(n);
    start_.assign(cell_count + 1, 0);
    for (NodeId i = 0; i < n; ++i) {
      const Vec2 o = offset(positions[i]);
      cell_of_[i] = static_cast<std::uint32_t>(
          static_cast<std::size_t>(o.y / half_width) * nx_ +
          static_cast<std::size_t>(o.x / half_width));
      ++start_[cell_of_[i]];
    }
    // start_[c] becomes the end of cell c; placing ids in descending order
    // walks it back to the cell's start and leaves each cell ascending.
    for (std::size_t c = 1; c < cell_count; ++c) start_[c] += start_[c - 1];
    start_[cell_count] = static_cast<std::uint32_t>(n);
    ids_.resize(n);
    pos_.resize(n);
    for (NodeId i = static_cast<NodeId>(n); i-- > 0;) {
      const std::uint32_t k = --start_[cell_of_[i]];
      ids_[k] = i;
      pos_[k] = positions[i];
    }
  }

  /// Calls fn(i, ids, positions) for every node i in ascending id and every
  /// row of the 3×3 block around i's cell (i itself is among the members).
  template <class Fn>
  void visit(Fn&& fn) const {
    for (NodeId i = 0; i < cell_of_.size(); ++i) {
      const std::size_t cx = cell_of_[i] % nx_;
      const std::size_t cy = cell_of_[i] / nx_;
      const std::size_t x0 = cx > 0 ? cx - 1 : 0;
      const std::size_t x1 = std::min(cx + 1, nx_ - 1);
      const std::size_t y1 = std::min(cy + 1, ny_ - 1);
      for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= y1; ++y) {
        const std::uint32_t first = start_[y * nx_ + x0];
        const std::uint32_t count = start_[y * nx_ + x1 + 1] - first;
        fn(i, std::span{ids_}.subspan(first, count),
           std::span{pos_}.subspan(first, count));
      }
    }
  }

 private:
  std::size_t nx_ = 1;                  ///< cells per row
  std::size_t ny_ = 1;                  ///< rows
  std::vector<std::uint32_t> cell_of_;  ///< per node, row-major cell index
  std::vector<std::uint32_t> start_;    ///< cell c is [start_[c], start_[c+1])
  std::vector<NodeId> ids_;             ///< members, cell by cell
  std::vector<Vec2> pos_;               ///< their positions
};

/// Hop counts from `from` by breadth-first search over a flat frontier (-1
/// where unreached), stopping once `stop` is labelled; kNoNode never stops.
std::vector<int> hops_from(const Topology& t, NodeId from, NodeId stop) {
  std::vector<int> hops(t.node_count(), -1);
  std::vector<NodeId> frontier(t.node_count());
  std::size_t head = 0;
  std::size_t tail = 0;
  frontier[tail++] = from;
  hops[from] = 0;
  while (head < tail) {
    const NodeId u = frontier[head++];
    for (NodeId v : t.neighbors(u)) {
      if (hops[v] < 0) {
        hops[v] = hops[u] + 1;
        if (v == stop) return hops;
        frontier[tail++] = v;
      }
    }
  }
  return hops;
}

}  // namespace

Topology::Topology(std::vector<Vec2> positions, double radio_range,
                   double carrier_sense_range)
    : positions_{std::move(positions)},
      range_{radio_range},
      cs_range_{carrier_sense_range > 0.0 ? carrier_sense_range : radio_range} {
  // Checked in every build type: the grid cannot bin a non-finite width or
  // position, and cells narrower than the radio range hide neighbours.
  if (!(std::isfinite(range_) && range_ > 0.0 &&
        (carrier_sense_range == 0.0 || (std::isfinite(carrier_sense_range) &&
                                        carrier_sense_range >= range_)))) {
    throw std::invalid_argument{
        "Topology: need a finite radio range > 0 and a CS range of 0 or "
        "finite and >= it"};
  }
  const std::size_t n = positions_.size();
  for (NodeId i = 0; i < n; ++i) {
    if (!(std::isfinite(positions_[i].x) && std::isfinite(positions_[i].y))) {
      throw std::invalid_argument{"Topology: node " + std::to_string(i) +
                                  " has a non-finite position"};
    }
  }
  audible_lists_.resize(n);
  slot_offsets_.assign(n + 1, 0);
  if (n == 0) return;

  const CellGrid grid{positions_, cs_range_};
  const double range_sq = range_ * range_;
  const double cs_sq = cs_range_ * cs_range_;

  // Count pass: each node counts its own decodable and audible entries.
  struct Counts {
    std::uint32_t decodable = 0;
    std::uint32_t audible = 0;
  };
  std::vector<Counts> counts(n);
  grid.visit([&](NodeId i, std::span<const NodeId> ids,
                 std::span<const Vec2> pos) {
    const Vec2 p = positions_[i];
    std::uint32_t decodable = 0;
    std::uint32_t audible = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const double d_sq = distance_sq(p, pos[k]);
      const bool other = ids[k] != i;
      decodable += static_cast<std::uint32_t>(other & (d_sq < range_sq));
      audible += static_cast<std::uint32_t>(other & (d_sq < cs_sq));
    }
    counts[i].decodable += decodable;
    counts[i].audible += audible;
  });

  // Size every list exactly; the counts become fill cursors, the decodable
  // one from the list's start and the carrier-sense-only one after it.
  for (NodeId i = 0; i < n; ++i) {
    slot_offsets_[i + 1] = slot_offsets_[i] + counts[i].decodable;
    audible_lists_[i].resize(counts[i].audible);
    counts[i].audible = counts[i].decodable;
    counts[i].decodable = 0;
  }

  // Fill pass: the same visit appends i to j's part. Distance is exactly
  // symmetric, so j gets the entries it counted, and i ascends, so both
  // parts of every list come out sorted by id. Each block row is first
  // compacted to its audible members without a branch, then appended.
  struct Heard {
    NodeId id = 0;
    bool decodable = false;
  };
  std::vector<Heard> heard(n);
  grid.visit([&](NodeId i, std::span<const NodeId> ids,
                 std::span<const Vec2> pos) {
    const Vec2 p = positions_[i];
    std::size_t m = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const double d_sq = distance_sq(p, pos[k]);
      heard[m] = {ids[k], d_sq < range_sq};
      m += static_cast<std::size_t>((ids[k] != i) & (d_sq < cs_sq));
    }
    for (const auto [j, decodable] : std::span{heard}.first(m)) {
      std::uint32_t& at = decodable ? counts[j].decodable : counts[j].audible;
      WSN_AUDIT_CHECK(
          at < (decodable ? decodable_prefix(j) : audible_lists_[j].size()),
                      "fill pass overran the count pass");
      audible_lists_[j][at++] = i;
    }
  });
#if WSN_AUDIT_ENABLED
  for (NodeId i = 0; i < n; ++i) {
    WSN_AUDIT_CHECK(counts[i].decodable == decodable_prefix(i) &&
                        counts[i].audible == audible_lists_[i].size(),
                    "fill pass did not meet the count pass");
  }
#endif

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
  const std::vector<int> hops = hops_from(*this, 0, kNoNode);
  return std::ranges::find(hops, -1) == hops.end();
}

int Topology::hop_distance(NodeId from, NodeId to) const {
  return hops_from(*this, from, to)[to];
}

}  // namespace wsn::net
