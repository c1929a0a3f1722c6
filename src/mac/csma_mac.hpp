// CSMA/CA MAC with DCF-style backoff, broadcast and acked unicast.
#pragma once

#include <cstdint>

#include "mac/mac_base.hpp"
#include "mac/params.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace wsn::mac {

/// Per-node 802.11-flavoured MAC.
///
/// Simplifications vs the full standard (documented in DESIGN.md): always
/// backs off before transmitting, no RTS/CTS, no virtual carrier sense
/// (NAV), no EIFS. Unicast frames are acknowledged and retried up to
/// `max_retries`; broadcast frames are fire-once.
class CsmaMac final : public MacBase {
 public:
  CsmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
          const PhyParams& phy, const EnergyParams& energy, sim::Rng rng);

  void send(net::Frame frame) override;

 private:
  enum class State {
    kIdle,        ///< nothing to send
    kContend,     ///< DIFS + backoff countdown in progress (or waiting for idle)
    kTransmit,    ///< frame on the air
    kWaitAck,     ///< unicast sent, ACK pending
  };

  /// Every state change goes through here: it keeps the channel's
  /// contending flag equal to `state_ == State::kContend`.
  void set_state(State s) {
    state_ = s;
    set_contending(s == State::kContend);
  }
  void on_tx_end(FrameKind sent) override;
  void on_power_change(bool alive) override;
  void deliver(const Transmission& tx, std::uint32_t from_slot) override;
  void medium_became_busy() override;
  void medium_became_idle() override;
  void start_contention();
  void on_difs_elapsed();
  /// Cancels DIFS and any backoff stint, keeping the slots still owed.
  void freeze_contention();
  void start_transmission();
  void on_ack_timeout();
  void finish_current(bool success);
  void send_ack(net::NodeId to);
  [[nodiscard]] std::uint32_t draw_backoff();

  PhyParams phy_;
  sim::Rng rng_;

  State state_ = State::kIdle;
  std::uint32_t cw_;
  std::int32_t backoff_slots_ = -1;  ///< -1: not drawn yet for this attempt
  /// When the armed backoff stint began counting down `backoff_slots_`.
  sim::Time stint_start_;

  sim::Timer difs_timer_;
  /// Expires when a whole stint of `backoff_slots_` idle slots has elapsed.
  sim::Timer backoff_timer_;
  sim::Timer ack_timer_;
};

}  // namespace wsn::mac
