// Directed-diffusion protocol node (paper §2) with aggregation (§3).
//
// `DiffusionNode` implements everything both instantiations share:
// interest flooding, gradient maintenance, exploratory-event flooding with
// the energy-cost attribute, the data cache, T_a-delayed aggregation,
// reinforcement propagation, negative reinforcement, and reinforcement-based
// local repair. The policy points where the two instantiations differ are
// virtual:
//   * what a sink does with a previously-unseen exploratory event,
//   * which upstream neighbour a reinforcement is propagated to,
//   * how an outgoing aggregate is priced and which incoming aggregates
//     count as "useful" for truncation,
//   * what happens with incremental-cost messages.
// `OpportunisticNode` (this module) reinforces the empirically-lowest-delay
// path immediately; `GreedyNode` (src/core) builds the greedy incremental
// tree of §4.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/messages.hpp"
#include "diffusion/types.hpp"
#include "mac/mac_base.hpp"
#include "net/types.hpp"
#include "net/vec2.hpp"
#include "sim/audit.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "trace/records.hpp"

namespace wsn::diffusion {

/// Per-node protocol counters.
struct ProtocolStats {
  std::uint64_t interests_sent = 0;
  std::uint64_t exploratory_sent = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t icm_sent = 0;
  std::uint64_t reinforcements_sent = 0;
  std::uint64_t negatives_sent = 0;
  std::uint64_t repairs_attempted = 0;
  std::uint64_t items_dropped_no_gradient = 0;
  std::uint64_t aggregates_received = 0;
};

class DiffusionNode : public mac::MacUser {
 public:
  DiffusionNode(sim::Simulator& sim, mac::MacBase& mac, net::Vec2 position,
                const DiffusionParams& params, sim::Rng rng,
                stats::MetricsCollector* metrics);
  ~DiffusionNode() override = default;

  DiffusionNode(const DiffusionNode&) = delete;
  DiffusionNode& operator=(const DiffusionNode&) = delete;

  /// Makes this node a sink for the task covering `region` and starts its
  /// periodic interest flood. Call before start(), which arms the sink's
  /// repair tick (audited).
  void make_sink(net::Rect region);

  /// Marks the node's sensor as detecting a phenomenon. It becomes an
  /// active source when a matching interest arrives (paper §2: sensing
  /// circuitry wakes up on task receipt).
  void set_detecting(bool detecting);

  /// Starts periodic maintenance (truncation / repair / cache pruning).
  /// Call once after construction and make_sink, before Simulator::run.
  void start();

  // --- inspection (tests, tree extraction, examples) ---
  [[nodiscard]] net::NodeId id() const { return mac_->id(); }
  [[nodiscard]] bool is_active_source() const { return source_active_; }
  [[nodiscard]] const ProtocolStats& stats() const { return stats_; }
  /// Neighbours we currently hold a live *data* gradient toward (our
  /// downstream next hops on the aggregation tree), ascending id. Fills and
  /// returns a reused buffer, valid until the next call.
  [[nodiscard]] const std::vector<net::NodeId>& data_gradient_neighbors();
  /// All gradients (neighbour, type) for debugging/visualisation.
  [[nodiscard]] std::vector<std::pair<net::NodeId, GradientType>> gradient_view()
      const;

  // --- MacUser ---
  void mac_receive(const net::Frame& frame, std::uint32_t from_slot) final;
  void mac_send_failed(const net::Frame& frame) final;
  void mac_send_succeeded(const net::Frame& frame) final;

 protected:
  /// Cap on tracked senders per exploratory event — enough for repair
  /// fallbacks, small enough to live inline in the record.
  static constexpr std::size_t kMaxSendersTracked = 4;

  /// What we remember about one exploratory event.
  struct ExplRecord {
    SourceId source = net::kNoNode;
    EventSeq seq = 0;
    std::int64_t gen_time_ns = 0;
    sim::Time first_seen;
    /// Senders that delivered this event, in arrival order, with the cost
    /// attribute each copy carried (capped; enough for repair fallbacks).
    sim::InlineVec<std::pair<net::NodeId, EnergyCost>, kMaxSendersTracked>
        senders;
    net::NodeId last_upstream = net::kNoNode;  ///< whom we last reinforced
    bool forward_scheduled = false;

    [[nodiscard]] EnergyCost best_received_cost() const {
      EnergyCost best = kInfiniteCost;
      for (const auto& [nb, c] : senders) best = std::min(best, c);
      return best;
    }
    /// Energy cost of delivering this event to *this* node.
    [[nodiscard]] EnergyCost my_cost() const {
      const EnergyCost b = best_received_cost();
      return b == kInfiniteCost ? kInfiniteCost : b + 1;
    }
  };

  /// Incremental-cost state per exploratory msg id (greedy only, but kept
  /// here so the local reinforcement rule can see it uniformly).
  struct IcmRecord {
    EnergyCost best_c = kInfiniteCost;     ///< lowest received C
    net::NodeId best_sender = net::kNoNode;
    EnergyCost forwarded_c = kInfiniteCost;
    bool generated = false;  ///< we generated an ICM for this event
  };

  /// One aggregate received (or self-generated) since the last flush.
  struct IncomingAgg {
    net::NodeId from = net::kNoNode;  ///< == id() for self-generated items
    std::vector<DataItem> items;
    EnergyCost cost = 0;
    bool had_new_items = false;
  };

  /// One item awaiting the next flush; `from` is the neighbour that
  /// delivered it (== id() for self-generated) so flushes are
  /// split-horizon: an item is never sent back to the neighbour it came
  /// from.
  struct PendingItem {
    DataItem item;
    net::NodeId from;
  };

  // --- policy points ---
  virtual void sink_on_new_exploratory(MsgId id) = 0;
  /// Local reinforcement rule: pick the upstream neighbour for `id`,
  /// skipping `suspect` neighbours; kNoNode if no viable option.
  [[nodiscard]] virtual net::NodeId choose_upstream(MsgId id) const = 0;
  /// Returns the cost attribute of the outgoing aggregate and calls
  /// mark_useful for every neighbour that was useful this round (for §4.3
  /// truncation). `outgoing` (the pending items, distinct keys) and
  /// `window` span the live prefixes of reused buffers, valid only for the
  /// duration of the call.
  [[nodiscard]] virtual EnergyCost flush_policy(
      std::span<const PendingItem> outgoing,
      std::span<const IncomingAgg> window) = 0;
  virtual void on_new_exploratory(const ExplRecord& rec, MsgId id) {
    (void)rec;
    (void)id;
  }
  virtual void handle_icm(const IncrementalCostMsg& msg, net::NodeId from) {
    (void)msg;
    (void)from;
  }

  // --- shared machinery available to subclasses ---
  // Each message kind leaves the node through one sender, which counts it,
  // traces it and hands it to the MAC via send(), in that order. send()
  // takes only diffusion messages, so mac_receive needs no RTTI to read one.
  void send(net::NodeId dst, std::uint32_t bytes,
            std::shared_ptr<const DiffusionMsg> payload);
  void send_reinforcement(net::NodeId to, MsgId id, bool force = false);
  /// Applies the local reinforcement rule for exploratory event `id_of_expl`
  /// and forwards the reinforcement upstream if the choice changed (or
  /// unconditionally when `force` — used by sink-driven path repair).
  void propagate_reinforcement(MsgId id_of_expl, bool force = false);
  /// Floods one exploratory event now (also used by orphaned sources to
  /// trigger path re-establishment without waiting a full period).
  void send_exploratory_now();
  /// Marks `nb` useful this truncation window; self (`id()`) is skipped.
  void mark_useful(net::NodeId nb);
  [[nodiscard]] bool has_data_gradient_out() const;
  /// True when `nb` must not be chosen as an upstream: blacklisted after a
  /// MAC-level send failure. Combined with the strict cost-descent rule in
  /// choose_upstream, reinforcement chains cannot loop: each hop's delivery
  /// cost strictly decreases toward the source.
  [[nodiscard]] bool is_suspect(net::NodeId nb) const;
  [[nodiscard]] MsgId fresh_msg_id();
  using ExplCache = sim::FlatMap<MsgId, ExplRecord>;
  using IcmCache = sim::FlatMap<MsgId, IcmRecord>;
  [[nodiscard]] const ExplCache& expl_cache() const { return expl_cache_; }
  [[nodiscard]] const IcmCache& icm_cache() const { return icm_cache_; }
  IcmRecord& icm_record(MsgId id) { return icm_cache_[id]; }

  /// Builds a protocol message in the simulator's recycling pool — the one
  /// blessed allocation path for per-send messages (tools/lint.py flags
  /// bare make_shared of message types in src/).
  template <typename M, typename... Args>
  [[nodiscard]] std::shared_ptr<M> make_msg(Args&&... args) {
    return sim_->arena().make<M>(std::forward<Args>(args)...);
  }

  sim::Simulator* sim_;
  mac::MacBase* mac_;
  net::Vec2 position_;
  DiffusionParams params_;
  sim::Rng rng_;
  stats::MetricsCollector* metrics_;
  ProtocolStats stats_;

 private:
  // message handlers; `slot` is the sender's place in mac_->neighbors()
  void handle_interest(const InterestMsg& msg, net::NodeId from,
                       std::uint32_t slot);
  void handle_exploratory(const ExploratoryMsg& msg, net::NodeId from);
  void handle_data(const DataMsg& msg, net::NodeId from);
  void handle_reinforcement(const ReinforcementMsg& msg, net::NodeId from,
                            std::uint32_t slot);
  void handle_negative(net::NodeId from, std::uint32_t slot);

  // senders
  void broadcast_interest(std::shared_ptr<const InterestMsg> msg);
  void send_exploratory(MsgId id, const ExplRecord& rec, EnergyCost cost);
  void send_negative(net::NodeId to, trace::NegativeReason reason);
  // item notes: the metrics collector (if any) and the trace record together
  void note_generated(DataItemKey key);
  void note_delivered(DataItemKey key, std::int64_t gen_time_ns);

  // periodic actions
  void send_interest();
  void generate_data_event();
  void generate_exploratory_event();
  void flush();
  void run_truncation();
  void run_repair();
  void housekeeping();

  void activate_source();
  /// Gradient toward one neighbour; `present` marks a live table entry.
  struct EdgeGradient {
    sim::Time expires;
    GradientType type = GradientType::kExploratory;
    bool present = false;

    [[nodiscard]] bool live_data(sim::Time now) const {
      return present && type == GradientType::kData && expires > now;
    }
  };
  /// Gradient toward the neighbour in `slot`; sizes the table on first use.
  EdgeGradient& gradient_at(std::uint32_t slot);
  void refresh_gradient(std::uint32_t slot);
  void degrade_gradient(std::uint32_t slot);
  /// Appends `item` to pending_ unless an item with its key is already
  /// there (one linear scan; the buffer holds one T_a window of items).
  void queue_pending(const DataItem& item, net::NodeId from);
  void maybe_early_flush();
  [[nodiscard]] bool is_aggregation_point() const;
  /// Claims the next reusable aggregation-window slot (fields reset, item
  /// capacity retained) and extends the live prefix.
  [[nodiscard]] IncomingAgg& next_window_slot();

  // roles
  bool is_sink_ = false;
  net::Rect region_;
  std::uint32_t interest_round_ = 0;
  bool detecting_ = false;
  bool source_active_ = false;
  EventSeq next_seq_ = 0;

  // Gradient state toward the sink side, one entry per neighbour slot:
  // aligned with mac_->neighbors() (ascending id), sized once to the degree
  // at the first gradient. Receptions index it by the sender's slot.
  std::vector<EdgeGradient> gradient_table_;
  std::size_t gradient_count_ = 0;  ///< entries with `present` set

  // The rest of the per-node state lives in sorted flat maps
  // (sim/flat_map.hpp): fan-out is bounded by radio degree, iteration is
  // deterministic by key, and erase/clear keep capacity so steady-state
  // maintenance never allocates.

  // interest duplicate suppression: sink -> highest round rebroadcast
  sim::FlatMap<net::NodeId, std::uint32_t> interest_rounds_;

  // caches
  ExplCache expl_cache_;
  IcmCache icm_cache_;
  sim::FlatMap<std::uint64_t, sim::Time> seen_items_;  // packed key
  sim::FlatMap<MsgId, sim::Time> seen_data_msgs_;

  // aggregation buffer, the flush path's only item store: one entry per
  // distinct key, in arrival order (see queue_pending)
  std::vector<PendingItem> pending_;
  // Window slots are recycled: the live prefix [0, window_live_) is this
  // round's aggregates; flush resets the count but keeps each slot's item
  // capacity, so the receive path stops allocating once warm.
  std::vector<IncomingAgg> window_aggs_;
  std::size_t window_live_ = 0;
  sim::FlatSet<SourceId> expected_sources_;  ///< sources in last outgoing aggregate

  // truncation / repair bookkeeping
  struct NeighborDataState {
    sim::Time last_data;
    sim::Time last_useful;
  };
  sim::FlatMap<net::NodeId, NeighborDataState> neighbor_data_;
  sim::FlatMap<net::NodeId, sim::Time> suspects_;
  // Consecutive MAC retry-exhaustions per next hop; one transient failure
  // under contention must not tear a working path down.
  sim::FlatMap<net::NodeId, int> send_failures_;
  // Sink only: when each source last delivered a data item here; drives
  // per-source path repair.
  sim::FlatMap<SourceId, sim::Time> last_source_item_;

  // data_gradient_neighbors' result, reused across calls (capacity kept)
  std::vector<net::NodeId> gradient_scratch_;

  // Audit-mode watermark backing the TTL cache-bound invariant: cache
  // inserts assert the purge cadence is alive, and housekeeping asserts no
  // entry outlived its TTL plus one purge period.
  WSN_AUDIT_ONLY(sim::Time last_housekeeping_;)
  WSN_AUDIT_ONLY(bool started_ = false;)
  WSN_AUDIT_ONLY(void audit_cache_bounds(sim::Time now) const;)
  WSN_AUDIT_ONLY(void audit_purge_cadence() const;)
  sim::Time last_repair_ = sim::Time::zero();
  sim::Time last_cascade_ = sim::Time::zero();
  sim::Time last_orphan_exploratory_ = sim::Time::zero();

  /// Tears down demand toward upstreams after we lost all downstream data
  /// gradients; rate-limited to once per T_n to damp cascade storms.
  void cascade_negative_upstream();

  // timers
  sim::Timer interest_timer_;
  sim::Timer exploratory_timer_;
  sim::Timer datagen_timer_;
  sim::Timer flush_timer_;
  sim::Timer trunc_timer_;
  sim::Timer repair_timer_;
  sim::Timer housekeeping_timer_;

  std::uint64_t msg_counter_ = 0;
};

/// The baseline instantiation (paper §2/§5 "opportunistic aggregation"):
/// reinforce the neighbour that delivered a previously-unseen exploratory
/// event first — an empirically low-delay tree — and aggregate only where
/// paths happen to overlap.
class OpportunisticNode final : public DiffusionNode {
 public:
  using DiffusionNode::DiffusionNode;

 protected:
  void sink_on_new_exploratory(MsgId id) override;
  [[nodiscard]] net::NodeId choose_upstream(MsgId id) const override;
  [[nodiscard]] EnergyCost flush_policy(
      std::span<const PendingItem> outgoing,
      std::span<const IncomingAgg> window) override;
};

}  // namespace wsn::diffusion
