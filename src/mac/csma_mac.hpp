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
    kContend,     ///< DIFS + backoff stint armed (or waiting for idle)
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
  void on_ack() override;
  void medium_became_busy() override { freeze_contention(); }
  void medium_became_idle() override { arm_contention(); }
  void start_contention();
  /// Arms the timer for DIFS plus the slots still owed or a fresh draw.
  void arm_contention();
  /// In kContend: cancels the timer. Past DIFS it commits the draw and
  /// charges the slots that elapsed; the rest stay owed.
  void freeze_contention();
  /// Draws the backoff from `rng_` (and traces it) unless already drawn.
  void commit_draw();
  /// Starts the transmission in kContend; retries or drops in kWaitAck.
  void on_timer();
  void start_transmission();
  void finish_current(bool success);
  [[nodiscard]] std::int32_t draw_backoff(sim::Rng& rng) const;

  sim::Rng rng_;

  State state_ = State::kIdle;
  std::uint32_t cw_;
  std::int32_t backoff_slots_ = -1;  ///< -1: not drawn yet for this attempt
  sim::Time stint_start_;  ///< when the armed stint's DIFS began
  /// Expires after DIFS and a whole stint of idle slots in kContend, at
  /// the ACK timeout in kWaitAck.
  sim::Timer timer_;
};

}  // namespace wsn::mac
