// Greedy aggregation — the paper's contribution (§4).
//
// A new instantiation of directed diffusion that constructs a greedy
// incremental tree: the first source reaches the sink over a lowest-energy
// path; every later source is grafted onto the existing tree at its
// closest point, discovered through incremental-cost messages. Outgoing
// aggregates are priced by a greedy weighted set cover over the incoming
// aggregates (§4.2), and inefficient paths are truncated by negatively
// reinforcing neighbours outside the source-level set cover (§4.3).
#pragma once

#include "agg/set_cover.hpp"
#include "diffusion/node.hpp"

namespace wsn::core {

class GreedyNode final : public diffusion::DiffusionNode {
 public:
  using DiffusionNode::DiffusionNode;

 protected:
  /// §4.1: the sink waits T_p before reinforcing, so incremental-cost
  /// messages get a chance to reveal a cheaper graft point.
  void sink_on_new_exploratory(diffusion::MsgId id) override;

  /// §4.1 local rule: reinforce whichever neighbour offered the event at
  /// the lowest energy cost — directly (exploratory, cost E+1) or via the
  /// existing tree (ICM, cost C). Ties favour the exploratory path.
  [[nodiscard]] net::NodeId choose_upstream(diffusion::MsgId id) const override;

  /// §4.2 aggregate pricing + §4.3 source-level truncation cover.
  [[nodiscard]] diffusion::EnergyCost flush_policy(
      std::span<const PendingItem> outgoing,
      std::span<const IncomingAgg> window) override;

  /// §4.1: an on-tree source seeing another source's new exploratory event
  /// announces the graft cost down the tree.
  void on_new_exploratory(const ExplRecord& rec, diffusion::MsgId id) override;

  /// §4.1: on-tree nodes relay ICMs toward the sink, lowering C to their
  /// own delivery cost for the same exploratory event when that is smaller.
  void handle_icm(const diffusion::IncrementalCostMsg& msg,
                  net::NodeId from) override;

 private:
  /// Announces graft cost `c` for `source`'s exploratory event `id` on
  /// every downstream data gradient.
  void send_icm(diffusion::MsgId id, diffusion::SourceId source,
                diffusion::EnergyCost c);

  // Set-cover scratch, reused across flushes (capacity retained) so
  // pricing an aggregate stops allocating once the fan-in is warm. The
  // family buffer is used live-prefix style: claim_family_prefix() hands
  // out the first `n` sets with their element vectors cleared but their
  // storage intact; the solver's own buffers live in cover_ws_.
  sim::FlatMap<std::uint64_t, std::uint32_t> item_index_;
  sim::FlatMap<diffusion::SourceId, std::uint32_t> source_index_;
  std::vector<agg::WeightedSet> family_scratch_;
  agg::GreedyCoverWorkspace cover_ws_;
  [[nodiscard]] std::span<agg::WeightedSet> claim_family_prefix(std::size_t n);
};

}  // namespace wsn::core
