// Abstract link layer: what the diffusion stack needs from a MAC, plus the
// radio core every MAC shares.
#pragma once

#include <bit>
#include <cstdint>

#include "mac/channel.hpp"
#include "mac/energy.hpp"
#include "net/types.hpp"
#include "sim/audit.hpp"
#include "sim/flat_map.hpp"
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
/// meter, the user hook, the outgoing queue, the in-flight arrival ledger
/// and the transmit/receive bookkeeping, so every MAC counter and MAC
/// trace record except `kMacBackoff` has exactly one emission site, here.
/// Concrete MACs implement only the access policy: when to transmit the
/// queue head, which arrival starts collide, and what follows the end of
/// their own transmission.
class MacBase {
 public:
  MacBase(sim::Simulator& sim, Channel& channel, net::NodeId id,
          const EnergyParams& energy, std::size_t queue_limit)
      : sim_{&sim},
        channel_{&channel},
        id_{id},
        meter_{energy},
        queue_limit_{queue_limit} {
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
  /// its own timers in `on_power_change`.
  void set_alive(bool alive);

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const MacStats& stats() const { return stats_; }

  /// Energy consumed up to `now`.
  [[nodiscard]] double energy_joules(sim::Time now) {
    meter_.accumulate_to(now);
    return meter_.joules();
  }
  /// Energy consumed transmitting/receiving only (no idle floor).
  [[nodiscard]] double active_energy_joules(sim::Time now) {
    meter_.accumulate_to(now);
    return meter_.active_joules();
  }

  // --- Channel-facing interface (called by Channel's scheduled events) ---
  /// `decodable` is false for carrier-sense-only arrivals (audible but out
  /// of radio range): they occupy the medium and cost receive energy but
  /// can never be delivered.
  virtual void arrival_start(const TransmissionPtr& tx, bool decodable) = 0;
  virtual void arrival_end(const TransmissionPtr& tx) = 0;

 protected:
  struct Outgoing {
    net::Frame frame;
    int attempts = 0;
  };

  /// One in-flight arrival at this radio.
  struct ArrivalState {
    bool corrupt = false;
    bool decodable = true;
  };

  /// What `end_arrival` found.
  enum class ArrivalEnd {
    kUntracked,  ///< not in the ledger: the radio was down when it started
    kLost,       ///< corrupt, carrier-sense only, or aborted by its sender
    kClean,      ///< decodable and intact: hand it to `deliver`
  };

  /// Called once per own transmission, after the shared tx-end bookkeeping
  /// (`kMacTxEnd`, radio state). `sent` says whether it was a data frame
  /// (the queue head) or an ACK.
  virtual void on_tx_end(FrameKind sent) = 0;
  /// Called by `set_alive` after the shared power-down/up reset.
  virtual void on_power_change(bool alive) = 0;

  [[nodiscard]] bool medium_busy() const {
    return transmitting_ || !arrivals_.empty();
  }

  /// Radio-state transition with energy-sample tracing: accumulates the
  /// meter exactly like a direct set_state call, and emits one trace
  /// record per actual state change (not per refresh).
  void set_radio_state(RadioState s) {
    const RadioState prev = meter_.state();
    meter_.set_state(sim_->now(), s);
    if (s != prev) {
      WSN_TRACE_EMIT(sim_, trace::RecordKind::kEnergySample, id_,
                     trace::kNoPeer, static_cast<std::uint64_t>(s),
                     std::bit_cast<std::uint64_t>(meter_.joules()));
    }
  }

  /// Derives the radio state from liveness, transmission and arrivals.
  void update_radio_state() {
    RadioState s = RadioState::kIdle;
    if (!alive_) {
      s = RadioState::kOff;
    } else if (transmitting_) {
      s = RadioState::kTx;
    } else if (!arrivals_.empty()) {
      s = RadioState::kRx;
    }
    set_radio_state(s);
  }

  /// Counts and traces one corrupted arrival of a decodable frame.
  void count_collision(const Transmission& tx) {
    ++stats_.arrivals_corrupted;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacCollision, id_, tx.src, tx.id,
                   0);
  }

  /// Marks every arrival still in flight corrupt (no capture, half duplex).
  void corrupt_arrivals() {
    for (auto& [txp, st] : arrivals_) st.corrupt = true;
  }

  /// Enters an arrival into the ledger and refreshes the radio state.
  void add_arrival(const TransmissionPtr& tx, ArrivalState st) {
    arrivals_.emplace(tx.get(), st);
    update_radio_state();
  }

  /// Removes an arrival from the ledger and refreshes the radio state.
  ArrivalEnd end_arrival(const Transmission& tx) {
    auto it = arrivals_.find(&tx);
    if (it == arrivals_.end()) return ArrivalEnd::kUntracked;
    const bool clean =
        it->second.decodable && !it->second.corrupt && !tx.aborted;
    arrivals_.erase(it);
    update_radio_state();
    return clean ? ArrivalEnd::kClean : ArrivalEnd::kLost;
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
  // In-flight arrivals at this radio. Flat map: a handful of concurrent
  // arrivals at most, keyed by transmission identity; pointer order is
  // fine because every use is a lookup or an order-insensitive flag sweep.
  sim::FlatMap<const Transmission*, ArrivalState> arrivals_;

 private:
  void begin_tx(const net::Frame& frame, FrameKind kind, sim::Time airtime);
  void end_tx();
  void audit_frame_conservation() const {
    WSN_AUDIT_CHECK(audit_accepted_ == audit_completed_ + queue_.size(),
                    "MAC frame conservation broken: accepted != "
                    "completed + queued");
  }

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
