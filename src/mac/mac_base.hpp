// Abstract link layer: what the diffusion stack needs from a MAC, plus the
// radio core every MAC shares.
#pragma once

#include <cstdint>

#include "mac/channel.hpp"
#include "mac/energy.hpp"
#include "net/types.hpp"
#include "sim/audit.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace wsn::mac {

/// Upper-layer callback interface (implemented by the diffusion layer).
class MacUser {
 public:
  virtual ~MacUser() = default;
  /// A decoded frame addressed to this node (or broadcast) arrived.
  virtual void mac_receive(const net::Frame& frame) = 0;
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
/// Owns the radio core every MAC shares: identity, liveness, the energy
/// meter, the user hook, the outgoing queue, the receive path and the
/// transmit/receive bookkeeping, so every MAC counter and MAC trace record
/// except `kMacBackoff` has exactly one emission site, here. Concrete MACs
/// implement only the access policy: when to transmit the queue head, what
/// a clean received frame means, and what follows the end of their own
/// transmission.
///
/// The receive path needs no per-arrival state. There is no capture, so
/// any overlap corrupts every frame in the air (and our own transmission
/// corrupts whatever we were receiving): at most one arrival — a decodable
/// one that started on an idle medium and has not been overlapped since —
/// can still be clean. The radio keeps that one (`clean_`) plus a count of
/// arrivals in flight.
class MacBase {
 public:
  MacBase(sim::Simulator& sim, Channel& channel, net::NodeId id,
          const EnergyParams& energy, std::size_t queue_limit)
      : sim_{&sim},
        channel_{&channel},
        id_{id},
        meter_{energy},
        queue_limit_{queue_limit},
        powered_up_after_{channel.last_start_swept()} {
    channel.attach(id, this);
  }
  virtual ~MacBase() = default;

  MacBase(const MacBase&) = delete;
  MacBase& operator=(const MacBase&) = delete;

  void set_user(MacUser* user) { user_ = user; }

  /// Queues a frame for transmission. Drops (and counts) when the queue is
  /// full or the node is down.
  virtual void send(net::Frame frame) = 0;

  /// Powers the node down/up. Down: queue flushed, in-flight transmission
  /// aborted, arrivals forgotten, zero energy draw; the access policy resets
  /// its own timers in `on_power_change`. Up: arrivals whose start sweep ran
  /// before this instant are ignored when they end.
  void set_alive(bool alive);

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const MacStats& stats() const { return stats_; }
  /// Whether the radio is transmitting or receiving any arrival.
  [[nodiscard]] bool medium_busy() const {
    return transmitting_ || in_flight_ > 0;
  }

  /// Energy consumed up to `now`.
  [[nodiscard]] double energy_joules(sim::Time now) const {
    return meter_.joules(now);
  }
  /// Energy consumed transmitting/receiving only (no idle floor).
  [[nodiscard]] double active_energy_joules(sim::Time now) const {
    return meter_.active_joules(now);
  }
  /// The radio's time per state, for harvest-time energy totals.
  [[nodiscard]] const EnergyMeter& meter() const { return meter_; }

  // --- Channel-facing interface (called by Channel's scheduled events) ---
  /// `decodable` is false for carrier-sense-only arrivals (audible but out
  /// of radio range): they occupy the medium and cost receive energy but
  /// can never be delivered. Every overlap counts one collision per
  /// decodable frame it corrupts: the clean victim first, then the
  /// newcomer. Inline and non-virtual so each channel sweep compiles to
  /// one loop; MACs react through the hooks below, which run only when the
  /// medium changes state or a frame is delivered.
  void arrival_start(const TransmissionPtr& tx, bool decodable) {
    const bool was_busy = medium_busy();
    if (clean_ != nullptr) {
      count_collision(*clean_);
      clean_ = nullptr;
    }
    if (was_busy && decodable) count_collision(*tx);
    if (!was_busy && decodable) clean_ = tx.get();
    ++in_flight_;
    audit_receive_path();
    update_radio_state();
    if (!was_busy) medium_became_busy();
  }

  void arrival_end(const TransmissionPtr& tx) {
    if (tx->id <= powered_up_after_) return;  // never counted in
    WSN_AUDIT_CHECK(in_flight_ > 0, "arrival ended with none in flight");
    --in_flight_;
    const bool clean = clean_ == tx.get();
    if (clean) clean_ = nullptr;
    audit_receive_path();
    update_radio_state();
    if (clean && !tx->aborted) deliver(*tx);
    if (!medium_busy()) medium_became_idle();
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
  /// A decodable frame ended intact (not overlapped, not aborted).
  virtual void deliver(const Transmission& tx) = 0;
  /// An arrival started while the radio was neither transmitting nor
  /// receiving. Default: ignore.
  virtual void medium_became_busy() {}
  /// The last arrival in flight ended and the radio is not transmitting.
  /// Called after `deliver`. Default: ignore.
  virtual void medium_became_idle() {}

  /// Derives the radio state from liveness, transmission and arrivals.
  void update_radio_state() {
    RadioState s = RadioState::kIdle;
    if (!alive_) {
      s = RadioState::kOff;
    } else if (transmitting_) {
      s = RadioState::kTx;
    } else if (in_flight_ > 0) {
      s = RadioState::kRx;
    }
    meter_.set_state(sim_->now(), s);
  }

  /// Queue admission: stamps and queues `frame`, or counts and traces a
  /// queue-full drop. Returns whether the frame was queued.
  bool enqueue(net::Frame frame);
  /// Puts the queue head on the air for `airtime`.
  void transmit_head(sim::Time airtime);
  /// Puts an ACK to `to` on the air for `airtime`.
  void transmit_ack(net::NodeId to, sim::Time airtime);
  /// Retires the queue head and tells the user a unicast's outcome. Failure
  /// means its retries ran out: counted and traced as a drop first.
  void complete_head(bool success);
  /// Hands a clean data frame addressed here (or broadcast) to the user.
  void hand_up(const Transmission& tx);

  sim::Simulator* sim_;
  Channel* channel_;
  net::NodeId id_;
  EnergyMeter meter_;
  MacUser* user_ = nullptr;
  bool alive_ = true;
  MacStats stats_;

  std::size_t queue_limit_;
  sim::RingQueue<Outgoing> queue_;
  bool transmitting_ = false;

 private:
  void begin_tx(const net::Frame& frame, FrameKind kind, sim::Time airtime);
  void end_tx();
  /// Counts and traces one corrupted arrival of a decodable frame.
  void count_collision(const Transmission& tx) {
    ++stats_.arrivals_corrupted;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacCollision, id_, tx.src, tx.id,
                   0);
  }
  void audit_receive_path() const {
    WSN_AUDIT_CHECK(clean_ == nullptr || (in_flight_ == 1 && !transmitting_),
                    "clean arrival while another arrival or our own "
                    "transmission overlaps it");
  }
  void audit_frame_conservation() const {
    WSN_AUDIT_CHECK(audit_accepted_ == audit_completed_ + queue_.size(),
                    "MAC frame conservation broken: accepted != "
                    "completed + queued");
  }

  std::uint32_t in_flight_ = 0;  ///< arrivals being received, any kind
  /// The one arrival that can still be delivered, or null. Never dangles:
  /// it is cleared at its own end, by any overlap, and at power-down.
  const Transmission* clean_ = nullptr;
  /// Id of the last transmission start-swept before this radio's latest
  /// power-up (or construction). Arrivals up to it were never counted in,
  /// so their ends are ignored.
  std::uint64_t powered_up_after_;

  TransmissionPtr outgoing_tx_;  ///< in-flight data frame (for abort)
  sim::EventHandle tx_end_event_;

  // Frame-conservation ledger (audit builds check it; counters are cheap
  // enough to keep unconditionally so the ABI does not fork on WSN_AUDIT).
  // Invariant: accepted == completed + queue_.size() at every quiescent
  // point, i.e. every accepted frame is eventually delivered-or-dropped.
  std::uint64_t audit_accepted_ = 0;   ///< frames admitted to the queue
  std::uint64_t audit_completed_ = 0;  ///< acked, broadcast-sent, or dropped
};

}  // namespace wsn::mac
