#include "mac/csma_mac.hpp"

#include <algorithm>
#include <utility>

namespace wsn::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
                 const PhyParams& phy, const EnergyParams& energy,
                 sim::Rng rng)
    : MacBase{sim, channel, id, energy, phy.queue_limit},
      phy_{phy},
      rng_{rng},
      cw_{phy.cw_min},
      difs_timer_{sim, [this] { on_difs_elapsed(); }},
      backoff_timer_{sim,
                     [this] {
                       backoff_slots_ = 0;
                       start_transmission();
                     }},
      ack_timer_{sim, [this] { on_ack_timeout(); }} {}

void CsmaMac::send(net::Frame frame) {
  if (enqueue(std::move(frame)) && state_ == State::kIdle) start_contention();
}

void CsmaMac::on_power_change(bool alive) {
  if (alive) return;
  backoff_slots_ = -1;
  cw_ = phy_.cw_min;
  set_state(State::kIdle);
  difs_timer_.cancel();
  backoff_timer_.cancel();
  ack_timer_.cancel();
}

std::uint32_t CsmaMac::draw_backoff() {
  return static_cast<std::uint32_t>(rng_.uniform_int(0, cw_));
}

void CsmaMac::start_contention() {
  set_state(State::kContend);
  backoff_slots_ = -1;
  if (!medium_busy()) difs_timer_.arm(phy_.difs);
  // else: wait for medium_became_idle() to arm DIFS.
}

void CsmaMac::medium_became_busy() {
  // Freeze: DIFS restarts and the remaining backoff resumes after the
  // medium has been idle for DIFS again.
  freeze_contention();
}

void CsmaMac::freeze_contention() {
  difs_timer_.cancel();
  if (!backoff_timer_.armed()) return;
  // Charge the slots that elapsed in this stint. A boundary exactly at
  // `now` counts: the per-slot model's tick there was scheduled a slot
  // earlier than whatever is freezing us now, so it fired first.
  const std::int64_t elapsed = (sim_->now() - stint_start_).as_nanos();
  backoff_slots_ -=
      static_cast<std::int32_t>(elapsed / phy_.slot.as_nanos());
  backoff_timer_.cancel();
}

void CsmaMac::medium_became_idle() { difs_timer_.arm(phy_.difs); }

void CsmaMac::on_difs_elapsed() {
  if (medium_busy()) return;  // raced with an arrival; idle handler re-arms
  if (backoff_slots_ < 0) {
    backoff_slots_ = static_cast<std::int32_t>(draw_backoff());
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacBackoff, id_, trace::kNoPeer,
                   backoff_slots_, cw_);
  }
  if (backoff_slots_ == 0) {
    start_transmission();
  } else {
    // One timer for the whole stint; a freeze charges the elapsed slots.
    stint_start_ = sim_->now();
    backoff_timer_.arm(phy_.slot * backoff_slots_);
  }
}

void CsmaMac::start_transmission() {
  if (queue_.empty()) {
    set_state(State::kIdle);
    return;
  }
  set_state(State::kTransmit);
  transmit_head(phy_.frame_airtime(queue_.front().frame.bytes));
}

void CsmaMac::on_tx_end(FrameKind sent) {
  if (sent == FrameKind::kAck) {
    // The frame that just ended was an ACK we sent on behalf of a received
    // unicast; it did not come from the queue. Resume whatever we were
    // doing: kWaitAck keeps waiting (its timer is untouched), contention
    // restarts, and an idle MAC with queued work starts contending.
    if (state_ == State::kContend ||
        (state_ == State::kIdle && !queue_.empty())) {
      start_contention();
    }
    return;
  }

  if (queue_.empty()) {
    set_state(State::kIdle);
    return;
  }
  if (queue_.front().frame.dst != net::kBroadcast) {
    set_state(State::kWaitAck);
    ack_timer_.arm(phy_.ack_timeout());
  } else {
    finish_current(true);
  }
}

void CsmaMac::on_ack_timeout() {
  if (++queue_.front().attempts > phy_.max_retries) {
    finish_current(false);
  } else {
    cw_ = std::min(cw_ * 2 + 1, phy_.cw_max);
    start_contention();
  }
}

void CsmaMac::finish_current(bool success) {
  complete_head(success);
  cw_ = phy_.cw_min;
  backoff_slots_ = -1;
  if (queue_.empty()) {
    set_state(State::kIdle);
  } else {
    start_contention();
  }
}

void CsmaMac::send_ack(net::NodeId to) {
  // ACKs are sent a SIFS after reception, without carrier sense — they have
  // priority over contending stations. If we are busy transmitting at that
  // instant, the ACK is skipped (sender will retry).
  sim_->schedule_in(phy_.sifs, [this, to] {
    if (!alive() || transmitting()) return;
    // Preempt whatever contention was in progress. This can cancel a DIFS
    // but never finds a backoff stint armed: the reception we acknowledge
    // froze any stint at its start, and a new one needs DIFS > SIFS of
    // idle medium after it ended. The freeze is kept as a guard.
    freeze_contention();
    transmit_ack(to, phy_.ack_airtime());
  });
}

void CsmaMac::deliver(const Transmission& tx, std::uint32_t from_slot) {
  const net::Frame& f = tx.frame;
  if (tx.kind == FrameKind::kAck) {
    if (state_ == State::kWaitAck && !queue_.empty() &&
        queue_.front().frame.dst == f.src) {
      ack_timer_.cancel();
      finish_current(true);
    }
    return;
  }
  if (f.dst == id_) send_ack(f.src);
  hand_up(tx, from_slot);
}

}  // namespace wsn::mac
