// Static node placement and unit-disk connectivity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "net/types.hpp"
#include "net/vec2.hpp"

namespace wsn::net {

/// Immutable sensor-field layout: node positions plus unit-disk neighbour
/// lists for a fixed radio range. Built once per experiment run; liveness
/// (node failures) is tracked elsewhere, not here.
class Topology {
 public:
  /// Builds the lists in one pass per node, with no hashing and no sort.
  /// A counting sort bins the nodes into cells at least the carrier-sense
  /// range wide (at most n cells, widened for sparse far-flung fields), so
  /// a node's audible nodes lie in the 3×3 block around its cell, whose
  /// members each cell keeps in ascending id with their coordinates. Each
  /// node masks its block: one decodable and one audible bit per member,
  /// eight members per AVX-512 step where CPUID reports avx512f, two per
  /// SSE2 step on other x86-64 CPUs. With its own bit cleared, the
  /// popcounts size its list exactly; writing the decodable ids, then the
  /// carrier-sense-only ones (a compress-store per 16 members, or a bit
  /// walk), fills both parts sorted by id. Every kernel writes the same
  /// lists. O(n) for uniform fields.
  ///
  /// `carrier_sense_range` is the distance out to which a transmission is
  /// still *audible* — it occupies the channel, costs receive energy and
  /// can corrupt receptions — even though it is only decodable within
  /// `radio_range` (ns-2's CSThresh vs RXThresh distinction; the classic
  /// WaveLAN ratio is 550 m / 250 m = 2.2). Pass 0 to make them equal.
  /// Throws std::invalid_argument unless `radio_range` is finite and > 0,
  /// `carrier_sense_range` is 0 or finite and at least `radio_range`, and
  /// every position is finite.
  Topology(std::vector<Vec2> positions, double radio_range,
           double carrier_sense_range = 0.0);

  /// The neighbour-scan kernel this CPU runs: "avx512", "sse2" or "scalar".
  [[nodiscard]] static std::string_view scan_kernel_name();

  [[nodiscard]] std::size_t node_count() const { return positions_.size(); }
  [[nodiscard]] double carrier_sense_range() const { return cs_range_; }

  [[nodiscard]] Vec2 position(NodeId id) const { return positions_[id]; }
  [[nodiscard]] const std::vector<Vec2>& positions() const {
    return positions_;
  }

  /// Neighbours of `id` (nodes strictly within radio range, excluding
  /// `id` itself), sorted by id: the decodable prefix of `audible(id)`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    return audible(id).first(decodable_prefix(id));
  }

  /// Nodes within carrier-sense range of `id` (superset of neighbors).
  ///
  /// Partitioned for the channel hot path: the first `decodable_prefix(id)`
  /// entries are exactly `neighbors(id)` (in radio range, sorted by id);
  /// the rest are carrier-sense-only nodes, also sorted by id. A receiver's
  /// decodability is therefore a position test, not a distance test.
  [[nodiscard]] std::span<const NodeId> audible(NodeId id) const {
    return {audible_lists_[id].data(), audible_lists_[id].size()};
  }

  /// Number of leading `audible(id)` entries that are within radio range.
  [[nodiscard]] std::size_t decodable_prefix(NodeId id) const {
    return slot_offsets_[id + 1] - slot_offsets_[id];
  }

  /// Reverse edge slots: entry k is the position of `id` in
  /// `neighbors(neighbors(id)[k])`, so a receiver of `id`'s frame learns
  /// where the sender sits in its own neighbour list without a search.
  [[nodiscard]] std::span<const std::uint32_t> reverse_slots(NodeId id) const {
    return {reverse_slots_.data() + slot_offsets_[id], decodable_prefix(id)};
  }

  /// Every id once, by cell of the neighbour grid (cells at least the
  /// carrier-sense range wide, row-major), ascending id within a cell: ids
  /// close here are close in the field. The stack builds its MACs and nodes
  /// in this order.
  [[nodiscard]] std::span<const NodeId> cell_order() const {
    return cell_order_;
  }

  [[nodiscard]] bool in_range(NodeId a, NodeId b) const;

  /// Mean neighbour count — the paper's "radio density".
  [[nodiscard]] double average_degree() const;

  /// True iff every node can reach every other (ignoring liveness).
  [[nodiscard]] bool connected() const;

  /// Hop distance between two nodes via BFS; -1 if unreachable.
  [[nodiscard]] int hop_distance(NodeId from, NodeId to) const;

 private:
  std::vector<Vec2> positions_;
  double range_;
  double cs_range_;
  std::vector<std::vector<NodeId>> audible_lists_;
  /// Node i's neighbours are edges [slot_offsets_[i], slot_offsets_[i+1]).
  std::vector<std::size_t> slot_offsets_;
  std::vector<std::uint32_t> reverse_slots_;  ///< one per edge
  std::vector<NodeId> cell_order_;
};

}  // namespace wsn::net
