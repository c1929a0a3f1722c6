#include "core/greedy_node.hpp"

#include <algorithm>

#include "agg/set_cover.hpp"
#include "trace/trace.hpp"

namespace wsn::core {

using diffusion::DataItem;
using diffusion::EnergyCost;
using diffusion::kInfiniteCost;
using diffusion::MsgId;
using diffusion::SourceId;

void GreedyNode::sink_on_new_exploratory(MsgId id) {
  // Delay the decision by T_p; by then the ICMs for this event have
  // propagated down the existing tree.
  sim_->schedule_in(params_.t_p, [this, id] {
    if (mac_->alive()) propagate_reinforcement(id);
  });
}

net::NodeId GreedyNode::choose_upstream(MsgId id) const {
  EnergyCost best_direct = kInfiniteCost;
  net::NodeId direct_nb = net::kNoNode;
  auto it = expl_cache().find(id);
  if (it != expl_cache().end()) {
    const EnergyCost my_cost = it->second.my_cost();
    for (const auto& [nb, cost] : it->second.senders) {
      if (is_suspect(nb)) continue;
      if (cost >= my_cost) continue;  // strict descent: chains cannot loop
      // Delivering source→nb cost `cost`; nb→me is one more transmission.
      if (cost + 1 < best_direct) {
        best_direct = cost + 1;
        direct_nb = nb;
      }
    }
  }

  EnergyCost best_graft = kInfiniteCost;
  net::NodeId graft_nb = net::kNoNode;
  auto icm_it = icm_cache().find(id);
  if (icm_it != icm_cache().end() && icm_it->second.best_sender != net::kNoNode &&
      !is_suspect(icm_it->second.best_sender)) {
    best_graft = icm_it->second.best_c;
    graft_nb = icm_it->second.best_sender;
  }

  // Lowest energy wins; a tie goes to the exploratory path (paper §4.1).
  if (best_direct <= best_graft) return direct_nb;
  return graft_nb;
}

std::span<agg::WeightedSet> GreedyNode::claim_family_prefix(std::size_t n) {
  if (family_scratch_.size() < n) family_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    family_scratch_[i].elements.clear();  // capacity retained
    family_scratch_[i].weight = 0.0;
  }
  return {family_scratch_.data(), n};
}

EnergyCost GreedyNode::flush_policy(std::span<const PendingItem> outgoing,
                                    std::span<const IncomingAgg> window) {
  // --- §4.2: price the outgoing aggregate via an event-level cover. ---
  EnergyCost outgoing_cost = 0;
  if (!outgoing.empty()) {
    item_index_.clear();
    for (const PendingItem& p : outgoing) {
      item_index_.try_emplace(p.item.key.packed(),
                              static_cast<std::uint32_t>(item_index_.size()));
    }
    const std::span<agg::WeightedSet> family =
        claim_family_prefix(window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      const IncomingAgg& in = window[i];
      agg::WeightedSet& s = family[i];
      for (const DataItem& item : in.items) {
        auto idx = item_index_.find(item.key.packed());
        if (idx != item_index_.end()) s.elements.push_back(idx->second);
      }
      s.weight = static_cast<double>(in.cost);
    }
    const agg::SetCoverResult& cover = agg::greedy_weighted_set_cover(
        cover_ws_, family, static_cast<std::uint32_t>(item_index_.size()));
    if (cover.covered) {
      outgoing_cost = static_cast<EnergyCost>(cover.total_weight + 0.5) + 1;
    } else {
      // Should not happen (every pending item arrived in some window
      // aggregate); fall back to the conservative sum.
      double sum = 0.0;
      for (const auto& s : family) sum += s.weight;
      outgoing_cost = static_cast<EnergyCost>(sum + 0.5) + 1;
    }
  }

  // --- §4.3: truncation cover over *sources*, not events. ---
  if (!window.empty()) {
    source_index_.clear();
    for (const IncomingAgg& in : window) {
      for (const DataItem& item : in.items) {
        source_index_.try_emplace(
            item.key.source, static_cast<std::uint32_t>(source_index_.size()));
      }
    }
    const std::span<agg::WeightedSet> family =
        claim_family_prefix(window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      const IncomingAgg& in = window[i];
      agg::WeightedSet& s = family[i];
      for (const DataItem& item : in.items) {
        s.elements.push_back(source_index_.at(item.key.source));
      }
      s.weight = static_cast<double>(in.cost);
      agg::collapse_to_sources(s, in.items.size());
    }
    const agg::SetCoverResult& cover = agg::greedy_weighted_set_cover(
        cover_ws_, family, static_cast<std::uint32_t>(source_index_.size()));
    for (std::size_t idx : cover.chosen) mark_useful(window[idx].from);
  }
  return outgoing_cost;
}

void GreedyNode::on_new_exploratory(const ExplRecord& /*rec*/, MsgId id) {
  // Only sources already on the tree announce graft costs (paper §4.1).
  if (!is_active_source() || !has_data_gradient_out()) return;
  auto& icm = icm_record(id);
  if (icm.generated) return;
  icm.generated = true;

  // Give the flood a moment to deliver the cheapest copy before measuring
  // our delivery cost.
  sim_->schedule_in(params_.exploratory_jitter, [this, id] {
    if (!mac_->alive() || !has_data_gradient_out()) return;
    auto it = expl_cache().find(id);
    if (it == expl_cache().end()) return;
    const EnergyCost c = it->second.my_cost();
    if (c == kInfiniteCost) return;
    auto& rec_icm = icm_record(id);
    rec_icm.forwarded_c = std::min(rec_icm.forwarded_c, c);
    send_icm(id, it->second.source, c);
  });
}

void GreedyNode::handle_icm(const diffusion::IncrementalCostMsg& msg,
                            net::NodeId from) {
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kIcmRecv, id(), from,
                 msg.exploratory_id, msg.cost_c);
  auto& icm = icm_record(msg.exploratory_id);
  if (msg.cost_c < icm.best_c) {
    icm.best_c = msg.cost_c;
    icm.best_sender = from;
  }

  // Lower C to our own delivery cost for the same exploratory event
  // (paper §4.1: C = min(C, E from the cache)), then relay down the tree
  // if that improves on anything we already relayed.
  EnergyCost c = msg.cost_c;
  auto it = expl_cache().find(msg.exploratory_id);
  if (it != expl_cache().end()) c = std::min(c, it->second.my_cost());
  if (c < icm.forwarded_c && has_data_gradient_out()) {
    icm.forwarded_c = c;
    send_icm(msg.exploratory_id, msg.new_source, c);
  }
}

void GreedyNode::send_icm(MsgId id, SourceId source, EnergyCost c) {
  auto msg = make_msg<diffusion::IncrementalCostMsg>();
  msg->exploratory_id = id;
  msg->new_source = source;
  msg->cost_c = c;
  ++stats_.icm_sent;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kIcmSend, this->id(), trace::kNoPeer,
                 id, c);
  for (net::NodeId nb : data_gradient_neighbors()) {
    send(nb, params_.control_bytes, msg);
  }
}

}  // namespace wsn::core
