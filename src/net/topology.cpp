#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/chunk_masks.hpp"
#include "sim/audit.hpp"

namespace wsn::net {
namespace {

/// Nodes binned by a counting sort into a row-major grid of square cells,
/// anchored at the positions' bounding box. Cells are at least `width`
/// wide, so every node within `width` of a node lies in the 3×3 block
/// around its cell. Each cell keeps that block's members in ascending id.
class CellGrid {
 public:
  /// Every id once, by cell in row-major order, ascending within a cell.
  std::vector<NodeId> order;

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

    // Counting sort: cell c's members would sit at [start[c], start[c+1]).
    cell_of_.resize(n);
    std::vector<std::uint32_t> start(cell_count + 1, 0);
    for (NodeId i = 0; i < n; ++i) {
      const Vec2 o = offset(positions[i]);
      cell_of_[i] = static_cast<std::uint32_t>(
          static_cast<std::size_t>(o.y / half_width) * nx_ +
          static_cast<std::size_t>(o.x / half_width));
      ++start[cell_of_[i] + 1];
    }
    for (std::size_t c = 0; c < cell_count; ++c) start[c + 1] += start[c];

    // Each block row is a contiguous run of cells, so its member count is
    // a difference of two offsets. A node lies in the block of exactly the
    // cells in its own block, so appending every id, ascending, to those
    // (at most 9) lists leaves each one sorted. Each block is padded up to
    // whole mask chunks with +inf coordinates, which set no mask bit.
    block_start_.assign(cell_count + 1, 0);
    for (std::size_t c = 0; c < cell_count; ++c) {
      const Bounds b = bounds(c);
      std::uint32_t size = kChunk - 1;  // rounds up below
      for (std::size_t y = b.y0; y <= b.y1; ++y) {
        size += start[y * nx_ + b.x1 + 1] - start[y * nx_ + b.x0];
      }
      block_start_[c + 1] = block_start_[c] + size / kChunk * kChunk;
    }
    std::vector cursor(block_start_.begin(), block_start_.end() - 1);
    block_ids_.resize(block_start_[cell_count]);
    xs_.assign(block_ids_.size(), std::numeric_limits<double>::infinity());
    ys_.assign(block_ids_.size(), std::numeric_limits<double>::infinity());
    for (NodeId i = 0; i < n; ++i) {
      const Bounds b = bounds(cell_of_[i]);
      for (std::size_t y = b.y0; y <= b.y1; ++y) {
        for (std::size_t x = b.x0; x <= b.x1; ++x) {
          const std::uint32_t e = cursor[y * nx_ + x]++;
          block_ids_[e] = i;
          xs_[e] = positions[i].x;
          ys_[e] = positions[i].y;
        }
      }
    }
    // The counting sort's placement pass, which leaves start[c] at cell
    // c's end.
    order.resize(n);
    for (NodeId i = 0; i < n; ++i) order[start[cell_of_[i]]++] = i;
  }

  /// Node i's padded 3×3 block, i among them: ids, and coordinates alike.
  struct Block {
    std::span<const NodeId> ids;
    const double *xs, *ys;
  };
  [[nodiscard]] Block block_of(NodeId i) const {
    const std::uint32_t first = block_start_[cell_of_[i]];
    return {std::span{block_ids_}.subspan(
                first, block_start_[cell_of_[i] + 1] - first),
            xs_.data() + first, ys_.data() + first};
  }

 private:
  /// Cell c's 3×3 block, clipped: columns [x0, x1], rows [y0, y1].
  struct Bounds {
    std::size_t x0, x1, y0, y1;
  };
  [[nodiscard]] Bounds bounds(std::size_t c) const {
    const std::size_t cx = c % nx_;
    const std::size_t cy = c / nx_;
    return {cx > 0 ? cx - 1 : 0, std::min(cx + 1, nx_ - 1),
            cy > 0 ? cy - 1 : 0, std::min(cy + 1, ny_ - 1)};
  }

  std::size_t nx_ = 1;                  ///< cells per row
  std::size_t ny_ = 1;                  ///< rows
  std::vector<std::uint32_t> cell_of_;  ///< per node, row-major cell index
  /// Cell c's block: entries block_start_[c] to block_start_[c+1].
  std::vector<std::uint32_t> block_start_;
  std::vector<NodeId> block_ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
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

  CellGrid grid{positions_, cs_range_};
  cell_order_ = std::move(grid.order);
  const double range_sq = range_ * range_;
  const double cs_sq = cs_range_ * cs_range_;

  // Each node masks its block chunk by chunk. Its own bit (distance 0) is
  // set where 0 < range² and where 0 < cs², so the popcounts less those size
  // its list; walking the decodable bits, then the carrier-sense-only ones,
  // and skipping i writes both parts in ascending id.
  std::vector<ChunkMasks> masks;
  for (NodeId i = 0; i < n; ++i) {
    const CellGrid::Block b = grid.block_of(i);
    masks.resize(b.ids.size() / kChunk);
    std::size_t decodable = 0;
    std::size_t audible = 0;
    for (std::size_t w = 0; w < masks.size(); ++w) {
      masks[w] = chunk_masks(positions_[i], b.xs + w * kChunk,
                             b.ys + w * kChunk, range_sq, cs_sq);
      decodable += static_cast<std::size_t>(std::popcount(masks[w].decodable));
      audible += static_cast<std::size_t>(std::popcount(masks[w].audible));
    }
    slot_offsets_[i + 1] = slot_offsets_[i] + decodable - (range_sq > 0.0);
    std::vector<NodeId>& list = audible_lists_[i];
    list.resize(audible - (cs_sq > 0.0));
    NodeId* out = list.data();
    for (const bool cs_only : {false, true}) {
      for (std::size_t w = 0; w < masks.size(); ++w) {
        std::uint64_t bits = cs_only ? masks[w].audible & ~masks[w].decodable
                                     : masks[w].decodable;
        for (; bits != 0; bits &= bits - 1) {
          const NodeId j = b.ids[w * kChunk + std::countr_zero(bits)];
          if (j != i) *out++ = j;
        }
      }
    }
  }
#if WSN_AUDIT_ENABLED
  // Both parts strictly ascending, and every entry mirrored in the same
  // part of its peer's list (audibility is symmetric).
  const auto part = [this](NodeId i, bool decodable) {
    const auto all = audible(i);
    return decodable ? all.first(decodable_prefix(i))
                     : all.subspan(decodable_prefix(i));
  };
  for (NodeId i = 0; i < n; ++i) {
    for (const bool decodable : {true, false}) {
      const auto mine = part(i, decodable);
      WSN_AUDIT_CHECK(
          std::ranges::adjacent_find(mine, std::greater_equal{}) == mine.end(),
          "an audible list part is not strictly ascending");
      for (const NodeId j : mine) {
        WSN_AUDIT_CHECK(std::ranges::binary_search(part(j, decodable), i),
                        "audibility is not symmetric");
      }
    }
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
