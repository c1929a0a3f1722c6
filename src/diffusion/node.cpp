#include "diffusion/node.hpp"

#include <algorithm>
#include <cassert>

#include "agg/set_cover.hpp"
#include "trace/trace.hpp"

namespace wsn::diffusion {
namespace {
/// Cache-purge cadence. The TTL caches are swept this often, so an entry
/// lives at most its TTL plus one period (plus the one-second arming
/// jitter) — the bound the WSN_AUDIT invariant enforces.
const sim::Time kHousekeepingPeriod = sim::Time::seconds(10.0);
const sim::Time kHousekeepingJitter = sim::Time::seconds(1.0);

/// Position of `nb` in the ascending list `nbrs`, or `nbrs.size()` when
/// `nb` is not in it. Receptions carry their sender's slot instead.
std::uint32_t slot_of(std::span<const net::NodeId> nbrs, net::NodeId nb) {
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), nb);
  const auto pos = it != nbrs.end() && *it == nb ? it : nbrs.end();
  return static_cast<std::uint32_t>(pos - nbrs.begin());
}
}  // namespace

DiffusionNode::DiffusionNode(sim::Simulator& sim, mac::MacBase& mac,
                             net::Vec2 position,
                             const DiffusionParams& params, sim::Rng rng,
                             stats::MetricsCollector* metrics)
    : sim_{&sim},
      mac_{&mac},
      position_{position},
      params_{params},
      rng_{rng},
      metrics_{metrics},
      interest_timer_{sim, [this] { send_interest(); }},
      exploratory_timer_{sim, [this] { generate_exploratory_event(); }},
      datagen_timer_{sim, [this] { generate_data_event(); }},
      flush_timer_{sim, [this] { flush(); }},
      trunc_timer_{sim, [this] { run_truncation(); }},
      repair_timer_{sim, [this] { run_repair(); }},
      housekeeping_timer_{sim, [this] { housekeeping(); }} {
  mac.set_user(this);
}

void DiffusionNode::start() {
  trunc_timer_.arm(params_.t_n + rng_.jitter(params_.t_n));
  // Only a sink drives repair (run_repair), so only a sink arms the repair
  // tick; make_sink must come first. Every node still draws the tick's
  // jitter, so no node's RNG stream depends on its role.
  const sim::Time repair_delay = params_.repair_silence.scaled(0.5) +
                                 rng_.jitter(params_.repair_silence);
  if (is_sink_) repair_timer_.arm(repair_delay);
  housekeeping_timer_.arm(kHousekeepingPeriod +
                          rng_.jitter(kHousekeepingJitter));
  WSN_AUDIT_ONLY(started_ = true;)
  WSN_AUDIT_ONLY(last_housekeeping_ = sim_->now();)
}

void DiffusionNode::make_sink(net::Rect region) {
  WSN_AUDIT_CHECK(!started_,
                  "make_sink after start: the sink would get no repair tick");
  is_sink_ = true;
  region_ = region;
  interest_timer_.arm(rng_.jitter(sim::Time::millis(100)));
}

void DiffusionNode::set_detecting(bool detecting) { detecting_ = detecting; }

MsgId DiffusionNode::fresh_msg_id() {
  // Unique across nodes: high bits are the node id, low bits a counter.
  return (static_cast<MsgId>(id()) << 40) | ++msg_counter_;
}

// ---------------------------------------------------------------- sending

void DiffusionNode::send(net::NodeId dst, std::uint32_t bytes,
                         std::shared_ptr<const DiffusionMsg> payload) {
  net::Frame f;
  f.dst = dst;
  f.bytes = bytes;
  f.payload = std::move(payload);
  mac_->send(std::move(f));
}

void DiffusionNode::send_reinforcement(net::NodeId to, MsgId id, bool force) {
  auto msg = make_msg<ReinforcementMsg>();
  msg->exploratory_id = id;
  msg->force = force;
  ++stats_.reinforcements_sent;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kReinforceSend, this->id(), to, id,
                 force ? 1 : 0);
  send(to, params_.control_bytes, std::move(msg));
}

void DiffusionNode::send_negative(net::NodeId to,
                                  trace::NegativeReason reason) {
  ++stats_.negatives_sent;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kNegativeSend, id(), to, reason, 0);
  send(to, params_.control_bytes, make_msg<NegativeReinforcementMsg>());
}

void DiffusionNode::broadcast_interest(std::shared_ptr<const InterestMsg> msg) {
  ++stats_.interests_sent;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kInterestSend, id(), net::kBroadcast,
                 msg->sink, msg->round);
  send(net::kBroadcast, params_.control_bytes, std::move(msg));
}

void DiffusionNode::send_exploratory(MsgId id, const ExplRecord& rec,
                                     EnergyCost cost) {
  auto msg = make_msg<ExploratoryMsg>();
  msg->msg_id = id;
  msg->source = rec.source;
  msg->seq = rec.seq;
  msg->gen_time_ns = rec.gen_time_ns;
  msg->cost_e = cost;
  ++stats_.exploratory_sent;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kExploratorySend, this->id(),
                 net::kBroadcast, id, cost);
  send(net::kBroadcast, params_.event_bytes, std::move(msg));
}

void DiffusionNode::note_generated(DataItemKey key) {
  if (metrics_ != nullptr) metrics_->on_event_generated();
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kItemGenerated, id(), trace::kNoPeer,
                 key.packed(), 0);
}

void DiffusionNode::note_delivered(DataItemKey key, std::int64_t gen_time_ns) {
  const sim::Time now = sim_->now();
  if (metrics_ != nullptr) {
    metrics_->on_event_delivered(id(), key.packed(),
                                 sim::Time::nanos(gen_time_ns), now);
  }
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kItemDelivered, id(), trace::kNoPeer,
                 key.packed(), now.as_nanos() - gen_time_ns);
}

void DiffusionNode::mark_useful(net::NodeId nb) {
  if (nb != id()) neighbor_data_[nb].last_useful = sim_->now();
}

const std::vector<net::NodeId>& DiffusionNode::data_gradient_neighbors() {
  gradient_scratch_.clear();
  const sim::Time now = sim_->now();
  const auto nbrs = mac_->neighbors();
  for (std::size_t k = 0; k < gradient_table_.size(); ++k) {
    if (gradient_table_[k].live_data(now)) gradient_scratch_.push_back(nbrs[k]);
  }
  return gradient_scratch_;
}

bool DiffusionNode::has_data_gradient_out() const {
  const sim::Time now = sim_->now();
  return std::any_of(gradient_table_.begin(), gradient_table_.end(),
                     [now](const EdgeGradient& g) { return g.live_data(now); });
}

bool DiffusionNode::is_suspect(net::NodeId nb) const {
  auto it = suspects_.find(nb);
  return it != suspects_.end() && it->second > sim_->now();
}

void DiffusionNode::cascade_negative_upstream() {
  const sim::Time now = sim_->now();
  expected_sources_.clear();
  if (now - last_cascade_ <= params_.t_n && last_cascade_ != sim::Time::zero()) {
    return;  // damped: at most one upstream teardown per window
  }
  last_cascade_ = now;
  for (auto& [nb, st] : neighbor_data_) {
    if (st.last_data + params_.t_n > now) {
      send_negative(nb, trace::NegativeReason::kCascade);
    }
  }
}

std::vector<std::pair<net::NodeId, GradientType>> DiffusionNode::gradient_view()
    const {
  std::vector<std::pair<net::NodeId, GradientType>> v;
  const sim::Time now = sim_->now();
  const auto nbrs = mac_->neighbors();
  for (std::size_t k = 0; k < gradient_table_.size(); ++k) {
    const EdgeGradient& g = gradient_table_[k];
    if (g.present && g.expires > now) v.emplace_back(nbrs[k], g.type);
  }
  return v;
}

// --------------------------------------------------------------- gradients

DiffusionNode::EdgeGradient& DiffusionNode::gradient_at(std::uint32_t slot) {
  if (gradient_table_.empty()) {
    gradient_table_.resize(mac_->neighbors().size());
  }
  return gradient_table_[slot];
}

void DiffusionNode::refresh_gradient(std::uint32_t slot) {
  EdgeGradient& g = gradient_at(slot);
  if (!g.present) {
    g.type = GradientType::kExploratory;
    g.present = true;
    ++gradient_count_;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kGradientNew, id(),
                   mac_->neighbors()[slot], g.type, 0);
  }
  g.expires = sim_->now() + params_.gradient_timeout;
}

void DiffusionNode::degrade_gradient(std::uint32_t slot) {
  if (slot >= gradient_table_.size()) return;  // not a neighbour, or no table
  EdgeGradient& g = gradient_table_[slot];
  if (!g.present) return;
  if (g.type == GradientType::kData) {
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kTreeChange, id(),
                   mac_->neighbors()[slot], 0, 0);
  }
  g.type = GradientType::kExploratory;
}

// ---------------------------------------------------------------- receive

void DiffusionNode::mac_receive(const net::Frame& frame,
                                std::uint32_t from_slot) {
  // Every frame a diffusion node receives was built by send(), which takes
  // only diffusion messages, so the payload's type is known without RTTI.
  // Audit builds still check it, and that the slot the channel handed up
  // names the sender: every gradient key is then a decodable neighbour.
  const auto* msg = static_cast<const DiffusionMsg*>(frame.payload.get());
  if (msg == nullptr) return;
  WSN_AUDIT_CHECK(dynamic_cast<const DiffusionMsg*>(  // lint:rtti-ok
                      frame.payload.get()) == msg,
                  "frame payload is not a diffusion message");
  WSN_AUDIT_CHECK(from_slot < mac_->neighbors().size() &&
                      mac_->neighbors()[from_slot] == frame.src,
                  "sender slot does not name the frame's sender");
  switch (msg->type) {
    case MsgType::kInterest:
      handle_interest(static_cast<const InterestMsg&>(*msg), frame.src,
                      from_slot);
      break;
    case MsgType::kExploratory:
      handle_exploratory(static_cast<const ExploratoryMsg&>(*msg), frame.src);
      break;
    case MsgType::kData:
      handle_data(static_cast<const DataMsg&>(*msg), frame.src);
      break;
    case MsgType::kIncrementalCost:
      handle_icm(static_cast<const IncrementalCostMsg&>(*msg), frame.src);
      break;
    case MsgType::kReinforcement:
      handle_reinforcement(static_cast<const ReinforcementMsg&>(*msg),
                           frame.src, from_slot);
      break;
    case MsgType::kNegativeReinforcement:
      handle_negative(frame.src, from_slot);
      break;
  }
}

void DiffusionNode::mac_send_failed(const net::Frame& frame) {
  // One exhausted unicast can be plain contention; two in a row without a
  // success in between means the next hop is dead or unreachable.
  if (++send_failures_[frame.dst] < 2) return;
  suspects_[frame.dst] = sim_->now() + params_.suspect_hold;
  const std::uint32_t slot = slot_of(mac_->neighbors(), frame.dst);
  const bool had_data = slot < gradient_table_.size() &&
                        gradient_table_[slot].present &&
                        gradient_table_[slot].type == GradientType::kData;
  if (had_data) {
    degrade_gradient(slot);
    if (!has_data_gradient_out() && !is_sink_) {
      // Orphaned: stop pulling data and tell upstreams to stop sending.
      cascade_negative_upstream();
    }
  }
}

void DiffusionNode::mac_send_succeeded(const net::Frame& frame) {
  send_failures_.erase(frame.dst);
}

// ---------------------------------------------------------------- interest

void DiffusionNode::send_interest() {
  ++interest_round_;
  auto msg = make_msg<InterestMsg>();
  msg->sink = id();
  msg->round = interest_round_;
  msg->region = region_;
  msg->sender_pos = position_;
  msg->sink_pos = position_;
  interest_rounds_[id()] = interest_round_;
  broadcast_interest(std::move(msg));
  interest_timer_.arm(params_.interest_period);
}

void DiffusionNode::handle_interest(const InterestMsg& msg, net::NodeId from,
                                    std::uint32_t slot) {
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kInterestRecv, id(), from, msg.sink,
                 msg.round);
  refresh_gradient(slot);
  auto [it, inserted] = interest_rounds_.try_emplace(msg.sink, 0);
  if (!inserted && it->second >= msg.round) {
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kCacheHit, id(), from,
                   (static_cast<std::uint64_t>(msg.sink) << 32) | msg.round,
                   trace::TraceCache::kInterestRounds);
    return;  // already rebroadcast
  }
  it->second = msg.round;

  if (detecting_ && !source_active_ && msg.region.contains(position_)) {
    activate_source();
  }

  // Directional mode (paper §2): rebroadcast only inside the task region
  // or within a corridor around the sink→region line, so the interest
  // travels toward the region instead of flooding the whole field.
  if (params_.interest_propagation == InterestPropagation::kDirectional &&
      !msg.region.contains(position_)) {
    const net::Vec2 region_center{(msg.region.x0 + msg.region.x1) * 0.5,
                                  (msg.region.y0 + msg.region.y1) * 0.5};
    if (net::distance_to_segment(position_, msg.sink_pos, region_center) >
        params_.directional_corridor_m) {
      return;
    }
  }

  // Re-flood after a small random delay, stamping our own position; a node
  // that died meanwhile sends (and counts) nothing.
  auto fwd = make_msg<InterestMsg>(msg);
  fwd->sender_pos = position_;
  sim_->schedule_in(rng_.jitter(params_.interest_jitter), [this, fwd] {
    if (mac_->alive()) broadcast_interest(fwd);
  });
}

// ------------------------------------------------------------------ source

void DiffusionNode::activate_source() {
  source_active_ = true;
  // Sources triggered by the same phenomenon sample in near-lockstep
  // (paper §4.1); align generation to multiples of the event period so
  // rounds meet at aggregation points instead of straggling by up to a
  // period. A small jitter keeps their transmissions from colliding.
  const auto period =
      sim::Time::seconds(1.0 / params_.data_rate_hz).as_nanos();
  const std::int64_t to_next_tick = period - sim_->now().as_nanos() % period;
  datagen_timer_.arm(sim::Time::nanos(to_next_tick) +
                     rng_.jitter(sim::Time::millis(20)));
  // Stagger first advertisements so co-triggered sources do not collide.
  exploratory_timer_.arm(rng_.jitter(sim::Time::seconds(1.0)));
}

void DiffusionNode::generate_data_event() {
  datagen_timer_.arm(sim::Time::seconds(1.0 / params_.data_rate_hz));
  if (!mac_->alive() || !source_active_) return;

  DataItem item;
  item.key = DataItemKey{id(), next_seq_++};
  item.gen_time_ns = sim_->now().as_nanos();
  note_generated(item.key);

  seen_items_[item.key.packed()] = sim_->now();
  queue_pending(item, id());
  IncomingAgg& self = next_window_slot();
  self.from = id();
  self.items.push_back(item);
  self.cost = 0;
  self.had_new_items = true;

  flush_timer_.arm_if_idle(params_.t_a);
  maybe_early_flush();
}

void DiffusionNode::generate_exploratory_event() {
  exploratory_timer_.arm(params_.exploratory_period);
  if (!mac_->alive() || !source_active_) return;
  send_exploratory_now();
}

void DiffusionNode::send_exploratory_now() {
  // Cache our own event so reinforcement chains terminate here.
  const MsgId mid = fresh_msg_id();
  ExplRecord& rec = expl_cache_.try_emplace(mid).first->second;
  rec.source = id();
  rec.seq = next_seq_++;
  rec.gen_time_ns = sim_->now().as_nanos();
  rec.first_seen = sim_->now();
  rec.forward_scheduled = true;
  note_generated(DataItemKey{id(), rec.seq});
  send_exploratory(mid, rec, 0);
}

// ------------------------------------------------------------- exploratory

void DiffusionNode::handle_exploratory(const ExploratoryMsg& msg,
                                       net::NodeId from) {
  WSN_AUDIT_ONLY(audit_purge_cadence();)
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kExploratoryRecv, id(), from,
                 msg.msg_id, msg.cost_e);
  auto [it, first] = expl_cache_.try_emplace(msg.msg_id);
  ExplRecord& rec = it->second;
  if (first) {
    rec.source = msg.source;
    rec.seq = msg.seq;
    rec.gen_time_ns = msg.gen_time_ns;
    rec.first_seen = sim_->now();
  }
  if (rec.source == id()) return;  // echo of our own event

  // Track the sender and the cost its copy carried.
  bool known_sender = false;
  for (auto& [nb, c] : rec.senders) {
    if (nb == from) {
      c = std::min(c, msg.cost_e);
      known_sender = true;
      break;
    }
  }
  if (!known_sender && rec.senders.size() < kMaxSendersTracked) {
    rec.senders.emplace_back(from, msg.cost_e);
  }

  if (!first) {
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kCacheHit, id(), from, msg.msg_id,
                   trace::TraceCache::kExploratory);
    return;
  }

  // Sinks consume the event (it is a real, low-rate event).
  if (is_sink_) {
    const DataItemKey key{rec.source, rec.seq};
    seen_items_[key.packed()] = sim_->now();
    note_delivered(key, rec.gen_time_ns);
  }

  // Re-flood once, after a jitter, carrying our own cost E (paper §4.1:
  // add the transmission cost before resending). Exploratory events follow
  // gradients: a node nobody tasked (no gradient at all — possible under
  // directional interests) does not forward them.
  if (!rec.forward_scheduled && gradient_count_ != 0) {
    rec.forward_scheduled = true;
    const MsgId mid = msg.msg_id;
    sim_->schedule_in(rng_.jitter(params_.exploratory_jitter), [this, mid] {
      if (!mac_->alive()) return;
      auto it2 = expl_cache_.find(mid);
      if (it2 == expl_cache_.end()) return;
      send_exploratory(mid, it2->second, it2->second.my_cost());
    });
  }

  on_new_exploratory(rec, msg.msg_id);
  if (is_sink_) sink_on_new_exploratory(msg.msg_id);
}

// ----------------------------------------------------------- reinforcement

void DiffusionNode::propagate_reinforcement(MsgId id_of_expl, bool force) {
  auto it = expl_cache_.find(id_of_expl);
  if (it == expl_cache_.end()) return;
  ExplRecord& rec = it->second;
  if (rec.source == id()) return;  // we are the origin; tree complete
  const net::NodeId up = choose_upstream(id_of_expl);
  if (up == net::kNoNode) return;
  if (up == rec.last_upstream && !force) return;
  rec.last_upstream = up;
  send_reinforcement(up, id_of_expl, force);
}

void DiffusionNode::handle_reinforcement(const ReinforcementMsg& msg,
                                         net::NodeId from,
                                         std::uint32_t slot) {
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kReinforceRecv, id(), from,
                 msg.exploratory_id, msg.force ? 1 : 0);
  EdgeGradient& g = gradient_at(slot);
  const bool fresh = !g.present;
  if (fresh) {
    g.present = true;
    ++gradient_count_;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kGradientNew, id(), from,
                   GradientType::kData, 0);
  }
  if (fresh || g.type != GradientType::kData) {
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kTreeChange, id(), from, 1, 0);
  }
  g.type = GradientType::kData;
  g.expires = sim_->now() + params_.gradient_timeout;
  propagate_reinforcement(msg.exploratory_id, msg.force);
}

void DiffusionNode::handle_negative(net::NodeId from, std::uint32_t slot) {
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kNegativeRecv, id(), from, 0, 0);
  degrade_gradient(slot);
  if (!has_data_gradient_out() && !is_sink_) {
    // All downstream demand gone: stop expecting data and cascade upstream.
    cascade_negative_upstream();
  }
}

// -------------------------------------------------------------------- data

void DiffusionNode::handle_data(const DataMsg& msg, net::NodeId from) {
  WSN_AUDIT_ONLY(audit_purge_cadence();)
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kDataRecv, id(), from, msg.msg_id,
                 msg.items.size());
  if (!seen_data_msgs_.try_emplace(msg.msg_id, sim_->now()).second) {
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kCacheHit, id(), from, msg.msg_id,
                   trace::TraceCache::kSeenDataMsgs);
    return;  // duplicate (e.g. MAC retransmission after a lost ACK)
  }
  ++stats_.aggregates_received;
  const sim::Time now = sim_->now();
  auto [ns_it, fresh_feeder] = neighbor_data_.try_emplace(from);
  auto& nstate = ns_it->second;
  nstate.last_data = now;
  // Grace window: a brand-new feeder is treated as useful until it has had
  // one full truncation window to prove itself, so path hand-overs are not
  // negged mid-transition.
  if (fresh_feeder) nstate.last_useful = now;

  IncomingAgg& rec = next_window_slot();
  rec.from = from;
  rec.items.assign(msg.items.begin(), msg.items.end());
  rec.cost = msg.cost_e;
  for (const DataItem& item : msg.items) {
    const bool is_new = seen_items_.try_emplace(item.key.packed(), now).second;
    if (!is_new) {
      WSN_TRACE_EMIT(sim_, trace::RecordKind::kCacheHit, id(), from,
                     item.key.packed(), trace::TraceCache::kSeenItems);
      continue;
    }
    rec.had_new_items = true;
    if (is_sink_) {
      last_source_item_[item.key.source] = now;
      note_delivered(item.key, item.gen_time_ns);
    }
    queue_pending(item, from);
  }

  if (!is_aggregation_point()) {
    flush();
    return;
  }
  flush_timer_.arm_if_idle(params_.t_a);
  maybe_early_flush();
}

bool DiffusionNode::is_aggregation_point() const {
  // ≥ 2 distinct recent data feeders (self counts as one for sources).
  const sim::Time horizon = sim_->now() - params_.t_n;
  int feeders = source_active_ ? 1 : 0;
  for (const auto& [nb, st] : neighbor_data_) {
    if (st.last_data > horizon) ++feeders;
    if (feeders >= 2) return true;
  }
  return false;
}

DiffusionNode::IncomingAgg& DiffusionNode::next_window_slot() {
  if (window_live_ == window_aggs_.size()) window_aggs_.emplace_back();
  IncomingAgg& slot = window_aggs_[window_live_++];
  slot.from = net::kNoNode;
  slot.items.clear();  // capacity retained
  slot.cost = 0;
  slot.had_new_items = false;
  return slot;
}

void DiffusionNode::queue_pending(const DataItem& item, net::NodeId from) {
  const bool queued = std::any_of(
      pending_.begin(), pending_.end(),
      [&](const PendingItem& p) { return p.item.key == item.key; });
  if (!queued) pending_.push_back(PendingItem{item, from});
}

void DiffusionNode::maybe_early_flush() {
  if (expected_sources_.empty() || pending_.empty()) return;
  // Flush as soon as everything we forwarded last time is present again
  // (paper §4.2: enough data ⇒ no further delay).
  for (SourceId s : expected_sources_) {
    const bool present = std::any_of(
        pending_.begin(), pending_.end(),
        [s](const PendingItem& p) { return p.item.key.source == s; });
    if (!present) return;
  }
  flush();
}

void DiffusionNode::flush() {
  flush_timer_.cancel();
  if (window_live_ == 0 && pending_.empty()) return;

  // Everything below works out of the live window/pending prefixes,
  // consumed on every exit path, so a warm flush performs no heap
  // allocation.
  const std::span<const IncomingAgg> window{window_aggs_.data(), window_live_};
  const EnergyCost outgoing_cost = flush_policy(pending_, window);
  const sim::Time now = sim_->now();

  const auto consume = [this] {
    window_live_ = 0;
    pending_.clear();
  };

  if (pending_.empty()) {
    consume();
    return;
  }
  if (is_sink_ && !has_data_gradient_out()) {
    consume();
    return;  // consumed here
  }

  bool sent_any = false;
  if (has_data_gradient_out()) {
    expected_sources_.clear();
    for (const PendingItem& p : pending_) {
      expected_sources_.insert(p.item.key.source);
    }
    // Split horizon: each downstream neighbour gets every pending item
    // except the ones it delivered to us itself — this keeps items (and
    // therefore set-cover weight) from circulating around gradient cycles.
    const auto nbrs = mac_->neighbors();
    for (std::size_t k = 0; k < gradient_table_.size(); ++k) {
      EdgeGradient& g = gradient_table_[k];
      if (!g.live_data(now)) continue;
      const net::NodeId nb = nbrs[k];
      auto msg = make_msg<DataMsg>(sim_->arena());
      msg->items.reserve(pending_.size());
      for (const PendingItem& p : pending_) {
        if (p.from != nb) msg->items.push_back(p.item);
      }
      if (msg->items.empty()) continue;
      // An in-use link keeps itself alive: dead next hops are torn down by
      // the MAC failure callback and useless ones by negative
      // reinforcement, so expiry only needs to reap *idle* gradients.
      g.expires = now + params_.gradient_timeout;
      msg->msg_id = fresh_msg_id();
      msg->cost_e = outgoing_cost;
      ++stats_.data_sent;
      WSN_TRACE_EMIT(sim_, trace::RecordKind::kDataSend, id(), nb, msg->msg_id,
                     msg->items.size());
      // lint:trace-ok — batch guard: skip the per-item loop when tracing off
      if (sim_->tracer() != nullptr) {
        for (const DataItem& item : msg->items) {
          WSN_TRACE_EMIT(sim_, trace::RecordKind::kItemForward, id(), nb,
                         item.key.packed(), msg->msg_id);
        }
      }
      const std::uint32_t bytes =
          params_.aggregation.bytes(msg->items.size());
      send(nb, bytes, std::move(msg));
      sent_any = true;
    }
  }
  if (!sent_any) {
    // No downstream at all, or every gradient points back at the items'
    // own provider (a split-horizon black hole). Either way this node is
    // not delivering: shed the demand and, if we are a source, re-advertise.
    stats_.items_dropped_no_gradient += pending_.size();
    // lint:trace-ok — batch guard: skip the per-item loop when tracing off
    if (sim_->tracer() != nullptr) {
      for (const PendingItem& p : pending_) {
        WSN_TRACE_EMIT(sim_, trace::RecordKind::kItemDropped, id(),
                       trace::kNoPeer, p.item.key.packed(), 0);
      }
    }
    cascade_negative_upstream();
    if (source_active_ &&
        now - last_orphan_exploratory_ > params_.interest_period) {
      last_orphan_exploratory_ = now;
      send_exploratory_now();
    }
  }
  consume();
}

// ------------------------------------------------------------- maintenance

void DiffusionNode::run_truncation() {
  trunc_timer_.arm(params_.t_n);
  if (!mac_->alive() || !params_.enable_truncation) return;
  // Aggregates awaiting their flush have not had their usefulness judged
  // yet; evaluate them first so fresh feeders are not negged prematurely.
  if (window_live_ > 0) flush();
  const sim::Time now = sim_->now();
  for (auto& [nb, st] : neighbor_data_) {
    const bool still_sending = st.last_data + params_.t_n > now;
    const bool was_useful = st.last_useful + params_.t_n > now;
    if (still_sending && !was_useful) {
      send_negative(nb, trace::NegativeReason::kTruncation);
      // Reset the clock so the neighbour gets a full window to improve.
      st.last_useful = now;
    }
  }
}

void DiffusionNode::run_repair() {
  // Only the data *consumer* drives repair, so only a sink ticks here.
  // Letting every on-tree node re-pull after silence re-animates abandoned
  // branches and fights the truncation rule; the sink's forced
  // reinforcement rebuilds the whole path, routing around suspects marked
  // by failed unicasts en route.
  WSN_AUDIT_CHECK(is_sink_, "repair tick at a node that is not a sink");
  repair_timer_.arm(params_.repair_silence.scaled(0.5));
  if (!mac_->alive()) return;
  const sim::Time now = sim_->now();
  if (now - last_repair_ <= params_.repair_silence) return;

  // Re-pull each advertised source that has gone silent, via the best
  // cached upstream. Silence is measured per source so one live path does
  // not mask another's breakage.
  const sim::Time fresh_horizon = now - params_.exploratory_period * 2;
  // Latest advertisement per silent source. The per-source pick tie-breaks
  // on msg id, so it is independent of expl-cache iteration order; in the
  // healthy steady state nothing is silent and this map stays empty (no
  // allocation on the periodic path).
  sim::FlatMap<SourceId, std::pair<MsgId, sim::Time>> latest;
  for (auto& [mid, rec] : expl_cache_) {
    if (rec.source == id() || rec.first_seen < fresh_horizon) continue;
    const auto ls = last_source_item_.find(rec.source);
    const sim::Time last_heard =
        ls == last_source_item_.end() ? rec.first_seen : ls->second;
    if (now - last_heard <= params_.repair_silence) continue;
    auto [lit, inserted] = latest.try_emplace(rec.source, mid, rec.first_seen);
    if (!inserted && (rec.first_seen > lit->second.second ||
                      (rec.first_seen == lit->second.second &&
                       mid < lit->second.first))) {
      lit->second = {mid, rec.first_seen};
    }
  }
  // Repair in source order (FlatMap iterates keys ascending): the
  // reinforcement sends interleave with the rest of the event stream, so
  // iteration order must not leak into the trajectory.
  for (const auto& [source, pick] : latest) {
    ++stats_.repairs_attempted;
    propagate_reinforcement(pick.first, /*force=*/true);
  }
  if (!latest.empty()) last_repair_ = now;
}

void DiffusionNode::housekeeping() {
  housekeeping_timer_.arm(kHousekeepingPeriod);
  const sim::Time now = sim_->now();
  WSN_AUDIT_ONLY(audit_cache_bounds(now);)

  // Purge tallies feed the trace (one kCachePurge per cache that shrank).
  const auto trace_purge = [this](trace::TraceCache cache, std::size_t n) {
    if (n > 0) {
      WSN_TRACE_EMIT(sim_, trace::RecordKind::kCachePurge, id(),
                     trace::kNoPeer, cache, n);
    }
  };
  trace_purge(trace::TraceCache::kSeenItems,
              seen_items_.erase_if([&](const auto& kv) {
                return kv.second + params_.cache_ttl < now;
              }));
  trace_purge(trace::TraceCache::kSeenDataMsgs,
              seen_data_msgs_.erase_if([&](const auto& kv) {
                return kv.second + params_.cache_ttl < now;
              }));
  const sim::Time expl_ttl =
      params_.exploratory_period * 2 + kHousekeepingPeriod;
  trace_purge(trace::TraceCache::kExploratory,
              expl_cache_.erase_if([&](const auto& kv) {
                return kv.second.first_seen + expl_ttl < now;
              }));
  // ICM state is keyed by exploratory msg id; drop it with its event.
  trace_purge(trace::TraceCache::kIcm,
              icm_cache_.erase_if([&](const auto& kv) {
                return !expl_cache_.contains(kv.first);
              }));
  // A data gradient expiring off the tree is a topology event, not just a
  // purge, so those get a kTreeChange on top of the purge tally.
  std::size_t purged = 0;
  for (std::size_t k = 0; k < gradient_table_.size(); ++k) {
    EdgeGradient& g = gradient_table_[k];
    if (!g.present || g.expires > now) continue;
    if (g.type == GradientType::kData) {
      WSN_TRACE_EMIT(sim_, trace::RecordKind::kTreeChange, id(),
                     mac_->neighbors()[k], 0, 0);
    }
    g = EdgeGradient{};
    ++purged;
  }
  gradient_count_ -= purged;
  trace_purge(trace::TraceCache::kGradients, purged);
  trace_purge(trace::TraceCache::kSuspects,
              suspects_.erase_if([&](const auto& kv) {
                return kv.second <= now;
              }));
  trace_purge(trace::TraceCache::kSendFailures,
              send_failures_.erase_if([&](const auto& kv) {
                return !is_suspect(kv.first) && kv.second >= 2;
              }));
  trace_purge(trace::TraceCache::kNeighborData,
              neighbor_data_.erase_if([&](const auto& kv) {
                return kv.second.last_data + params_.t_n * 4 < now;
              }));

#if WSN_AUDIT_ENABLED
  // Post-purge: ICM state may briefly outlive an exploratory record between
  // sweeps (an ICM can arrive for an event we never received), but never
  // across one.
  for (const auto& [mid, rec] : icm_cache_) {
    (void)rec;
    WSN_AUDIT_CHECK(expl_cache_.contains(mid),
                    "icm cache entry survived the purge of its event");
  }
  WSN_AUDIT_CHECK(static_cast<std::size_t>(std::count_if(
                      gradient_table_.begin(), gradient_table_.end(),
                      [](const EdgeGradient& g) { return g.present; })) ==
                      gradient_count_,
                  "gradient count disagrees with the table");
  last_housekeeping_ = now;
#endif
}

#if WSN_AUDIT_ENABLED
void DiffusionNode::audit_purge_cadence() const {
  // Rigs that never call start() have no purge cycle; nothing to check.
  if (!housekeeping_timer_.armed()) return;
  WSN_AUDIT_CHECK(sim_->now() - last_housekeeping_ <=
                      kHousekeepingPeriod + kHousekeepingJitter,
                  "duplicate-suppression purge cadence stalled");
}

void DiffusionNode::audit_cache_bounds(sim::Time now) const {
  // Every TTL cache entry must die at the first sweep after its TTL, so at
  // sweep time no entry can be older than TTL + one period (+ arm jitter).
  const sim::Time slack = kHousekeepingPeriod + kHousekeepingJitter;
  for (const auto& [key, stamp] : seen_items_) {
    (void)key;
    WSN_AUDIT_CHECK(stamp + params_.cache_ttl + slack >= now,
                    "seen_items entry outlived its TTL bound");
  }
  for (const auto& [mid, stamp] : seen_data_msgs_) {
    (void)mid;
    WSN_AUDIT_CHECK(stamp + params_.cache_ttl + slack >= now,
                    "seen_data_msgs entry outlived its TTL bound");
  }
  const sim::Time expl_ttl =
      params_.exploratory_period * 2 + kHousekeepingPeriod;
  for (const auto& [mid, rec] : expl_cache_) {
    (void)mid;
    WSN_AUDIT_CHECK(rec.first_seen + expl_ttl + slack >= now,
                    "exploratory cache entry outlived its TTL bound");
  }
}
#endif

// ======================================================= OpportunisticNode

void OpportunisticNode::sink_on_new_exploratory(MsgId id) {
  // Paper §2: reinforce the neighbour that delivered the previously-unseen
  // exploratory event — the empirically lowest-delay path — immediately.
  propagate_reinforcement(id);
}

net::NodeId OpportunisticNode::choose_upstream(MsgId id) const {
  auto it = expl_cache().find(id);
  if (it == expl_cache().end()) return net::kNoNode;
  const ExplRecord& rec = it->second;
  const diffusion::EnergyCost my_cost = rec.my_cost();
  for (const auto& [nb, cost] : rec.senders) {
    // Arrival order = empirically low delay. The strict cost bound keeps
    // the chain descending toward the source so reinforcement cannot loop.
    if (!is_suspect(nb) && cost < my_cost) return nb;
  }
  return net::kNoNode;
}

EnergyCost OpportunisticNode::flush_policy(
    std::span<const PendingItem> /*outgoing*/,
    std::span<const IncomingAgg> window) {
  // No energy-cost accounting; a neighbour was useful if it delivered at
  // least one previously-unseen item this window.
  for (const IncomingAgg& agg : window) {
    if (agg.had_new_items) mark_useful(agg.from);
  }
  return 0;
}

}  // namespace wsn::diffusion
