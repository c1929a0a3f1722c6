// Abstract link layer: what the diffusion stack needs from a MAC, plus the
// radio core every MAC shares.
#pragma once

#include <cstdint>
#include <span>

#include "mac/channel.hpp"
#include "mac/energy.hpp"
#include "mac/params.hpp"
#include "net/types.hpp"
#include "sim/audit.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/trace.hpp"

namespace wsn::mac {

/// Upper-layer callback interface (implemented by the diffusion layer).
class MacUser {
 public:
  virtual ~MacUser() = default;
  /// A decoded frame addressed to this node (or broadcast) arrived.
  /// `from_slot` is the sender's position in this node's neighbour list
  /// (`MacBase::neighbors()`), so per-neighbour state indexes without a
  /// search.
  virtual void mac_receive(const net::Frame& frame,
                           std::uint32_t from_slot) = 0;
  /// A unicast frame was dropped after exhausting its retries — the usual
  /// sign of a dead or unreachable next hop. Default: ignore.
  virtual void mac_send_failed(const net::Frame& frame) { (void)frame; }
  /// A unicast frame was acknowledged. Default: ignore.
  virtual void mac_send_succeeded(const net::Frame& frame) { (void)frame; }
};

/// Counters exposed for metrics and tests.
struct MacStats {
  std::uint64_t frames_sent = 0;       ///< data frames put on the air
  std::uint64_t acks_sent = 0;
  std::uint64_t frames_delivered = 0;  ///< clean frames handed to the user
  std::uint64_t arrivals_corrupted = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_retry_exhausted = 0;
  std::uint64_t retries = 0;
  std::uint64_t bytes_sent = 0;        ///< payload bytes, data frames only
};

/// Base class for link layers (CSMA/CA and TDMA implementations provided).
///
/// Owns the radio core every MAC shares: identity, liveness, the PHY
/// parameters, the energy meter, the user hook, the outgoing queue, the
/// transmit bookkeeping and the link's receive side (the SIFS ACK and the
/// one rule for accepting an ACK), so every MAC counter and MAC trace
/// record except `kMacBackoff` has exactly one emission site, in MacBase or
/// the channel sweeps it befriends. Concrete MACs implement only the access
/// policy: when to transmit the queue head, what an accepted ACK means, and
/// what follows the end of their own transmission.
///
/// The receive state lives in the channel's packed `RadioRecord` for this
/// node (alive, transmitting, contending, the clean arrival, the busy key
/// and the receive-time charge), which the sweeps read without calling in
/// here. There is no capture, so any overlap corrupts every frame in the
/// air (and our own transmission corrupts whatever we were receiving): at
/// most one arrival — a decodable one that started on an idle medium and
/// has not been overlapped since — can still be clean. The sweeps call a
/// MAC only to count a collision, to deliver its clean frame when it is
/// addressed here or broadcast, or, while it contends, to say the medium
/// turned busy or idle.
class MacBase {
 public:
  MacBase(sim::Simulator& sim, Channel& channel, net::NodeId id,
          const PhyParams& phy, const EnergyParams& energy)
      : sim_{&sim},
        channel_{&channel},
        id_{id},
        phy_{phy},
        meter_{energy},
        radio_{channel.attach(id, this)},
        tx_end_timer_{sim, [this] { end_tx(); }} {}
  virtual ~MacBase() = default;

  MacBase(const MacBase&) = delete;
  MacBase& operator=(const MacBase&) = delete;

  void set_user(MacUser* user) { user_ = user; }

  /// Queues a frame for transmission. Drops (and counts) when the queue is
  /// full or the node is down.
  virtual void send(net::Frame frame) = 0;

  /// Powers the node down/up. Down: queue flushed, in-flight transmission
  /// aborted, arrivals forgotten (with the receive time charged ahead of
  /// now), zero energy draw; the access policy resets its own timers in
  /// `on_power_change`. Up: only arrivals whose start sweep runs from now
  /// on are taken in.
  void set_alive(bool alive);

  [[nodiscard]] bool alive() const { return radio_->alive; }
  [[nodiscard]] net::NodeId id() const { return id_; }
  /// The nodes this radio can decode, ascending id; `mac_receive`'s slot
  /// indexes this list.
  [[nodiscard]] std::span<const net::NodeId> neighbors() const {
    return channel_->topology().neighbors(id_);
  }
  [[nodiscard]] const MacStats& stats() const { return stats_; }
  /// Whether the radio is transmitting or receiving any arrival.
  [[nodiscard]] bool medium_busy() const {
    return radio_->transmitting ||
           channel_->end_pending(radio_->rx.until, radio_->busy_id);
  }

  /// Energy consumed up to `now`.
  [[nodiscard]] double energy_joules(sim::Time now) const {
    return meter_.joules(now, radio_->rx.ns_at(now));
  }
  /// Energy consumed transmitting/receiving only (no idle floor).
  [[nodiscard]] double active_energy_joules(sim::Time now) const {
    return meter_.active_joules(now, radio_->rx.ns_at(now));
  }
  /// Nanoseconds the radio spent in `s` up to `now`, for harvest-time
  /// energy totals.
  [[nodiscard]] std::int64_t residence_ns(RadioState s, sim::Time now) const {
    return meter_.residence_ns(s, now, radio_->rx.ns_at(now));
  }

 protected:
  struct Outgoing {
    net::Frame frame;
    int attempts = 0;
  };

  /// Called once per own transmission, after the shared tx-end bookkeeping
  /// (`kMacTxEnd`, radio state). `sent` says whether it was a data frame
  /// (the queue head) or an ACK.
  virtual void on_tx_end(FrameKind sent) = 0;
  /// Called by `set_alive` after the shared power-down/up reset.
  virtual void on_power_change(bool alive) = 0;
  /// An ACK from the queue head's destination arrived intact. The policy
  /// decides whether it was waiting for one.
  virtual void on_ack() = 0;
  /// A decodable frame addressed to this node or broadcast ended intact
  /// (not overlapped, not aborted); the channel keeps overheard unicasts
  /// and ACKs to itself. `from_slot` is the sender's position in
  /// `neighbors()`. An ACK goes to `on_ack` if it comes from the queue
  /// head's destination. A data frame goes up to the user, and a unicast
  /// is acknowledged one SIFS later, without carrier sense: skipped if the
  /// radio is down or transmitting by then, and a contending radio hears
  /// `medium_became_busy` first. Both MACs use this body; it is virtual
  /// only so a probe of the sweeps can log deliveries without reacting.
  virtual void deliver(const Transmission& tx, std::uint32_t from_slot);
  /// An arrival started while the radio was contending, neither
  /// transmitting nor receiving. Default: ignore.
  virtual void medium_became_busy() {}
  /// The last arrival in flight ended while the radio was contending and
  /// not transmitting. Called after `deliver`. Default: ignore.
  virtual void medium_became_idle() {}

  [[nodiscard]] bool transmitting() const { return radio_->transmitting; }
  /// The access policy says whether it is waiting for an idle medium; the
  /// busy/idle hooks reach only a contending radio. Power-down clears it.
  void set_contending(bool contending) { radio_->contending = contending; }

  /// Queue admission: stamps and queues `frame`, or counts and traces a
  /// queue-full drop. Returns whether the frame was queued.
  bool enqueue(net::Frame frame);
  /// Puts the queue head on the air for its frame's airtime.
  void transmit_head();
  /// Retires the queue head and tells the user a unicast's outcome. Failure
  /// means its retries ran out: counted and traced as a drop first.
  void complete_head(bool success);

  sim::Simulator* sim_;
  Channel* channel_;
  net::NodeId id_;
  PhyParams phy_;
  EnergyMeter meter_;
  MacUser* user_ = nullptr;
  MacStats stats_;

  sim::RingQueue<Outgoing> queue_;

 private:
  friend class Channel;  // the sweeps count collisions and call the hooks

  void begin_tx(const net::Frame& frame, FrameKind kind, sim::Time airtime);
  /// Puts an ACK to `to` on the air.
  void transmit_ack(net::NodeId to);
  void end_tx();
  /// Counts and traces one corrupted arrival of a decodable frame.
  void count_collision(const Transmission& tx) {
    ++stats_.arrivals_corrupted;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacCollision, id_, tx.src, tx.id,
                   0);
  }
  void audit_frame_conservation() const {
    WSN_AUDIT_CHECK(audit_accepted_ == audit_completed_ + queue_.size(),
                    "MAC frame conservation broken: accepted != "
                    "completed + queued");
  }

  RadioRecord* radio_;  ///< this node's entry in the channel's array
  /// In-flight data frame (for abort), in a channel slot that its end sweep
  /// frees. Cleared at `end_tx` or power-down, before the slot can be
  /// reused: the end sweep runs a propagation delay after `end_tx`, or at
  /// zero delay just before it (the tx-end timer is armed right after the
  /// sweep is scheduled), and nothing between the two transmits.
  Transmission* outgoing_tx_ = nullptr;
  sim::Timer tx_end_timer_;  ///< armed for the airtime of our own frame

  // Frame-conservation ledger (audit builds check it; counters are cheap
  // enough to keep unconditionally so the ABI does not fork on WSN_AUDIT).
  // Invariant: accepted == completed + queue_.size() at every quiescent
  // point, i.e. every accepted frame is eventually delivered-or-dropped.
  std::uint64_t audit_accepted_ = 0;   ///< frames admitted to the queue
  std::uint64_t audit_completed_ = 0;  ///< acked, broadcast-sent, or dropped
};

}  // namespace wsn::mac
