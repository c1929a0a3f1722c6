#include "mac/csma_mac.hpp"

#include <algorithm>
#include <utility>

namespace wsn::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
                 const PhyParams& phy, const EnergyParams& energy,
                 sim::Rng rng)
    : MacBase{sim, channel, id, phy, energy},
      rng_{rng},
      cw_{phy.cw_min},
      timer_{sim, [this] { on_timer(); }} {}

void CsmaMac::send(net::Frame frame) {
  if (enqueue(std::move(frame)) && state_ == State::kIdle) start_contention();
}

void CsmaMac::on_power_change(bool alive) {
  if (alive) return;
  backoff_slots_ = -1;
  cw_ = phy_.cw_min;
  set_state(State::kIdle);
  timer_.cancel();
}

std::int32_t CsmaMac::draw_backoff(sim::Rng& rng) const {
  return static_cast<std::int32_t>(rng.uniform_int(0, cw_));
}

void CsmaMac::start_contention() {
  set_state(State::kContend);
  backoff_slots_ = -1;
  if (!medium_busy()) arm_contention();
  // else: wait for medium_became_idle() to arm.
}

void CsmaMac::arm_contention() {
  // A fresh draw is read from a copy: `rng_` advances only at the commit
  // (DESIGN.md, "One timer per CSMA MAC").
  sim::Rng ahead = rng_;
  const std::int32_t slots =
      backoff_slots_ >= 0 ? backoff_slots_ : draw_backoff(ahead);
  stint_start_ = sim_->now();
  timer_.arm(phy_.difs + phy_.slot * slots);
}

void CsmaMac::commit_draw() {
  if (backoff_slots_ >= 0) return;
  backoff_slots_ = draw_backoff(rng_);
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacBackoff, id_, trace::kNoPeer,
                 backoff_slots_, cw_);
}

void CsmaMac::freeze_contention() {
  if (state_ != State::kContend || !timer_.armed()) return;
  timer_.cancel();
  // Inside DIFS nothing is drawn or owed. Past it, a slot boundary exactly
  // at `now` counts: the per-slot model's tick there was scheduled a slot
  // earlier than whatever is freezing us now, so it fired first.
  const std::int64_t elapsed =
      (sim_->now() - stint_start_ - phy_.difs).as_nanos();
  if (elapsed < 0) return;
  commit_draw();
  backoff_slots_ -=
      static_cast<std::int32_t>(elapsed / phy_.slot.as_nanos());
}

void CsmaMac::on_timer() {
  if (state_ == State::kContend) {
    commit_draw();
    WSN_AUDIT_CHECK(sim_->now() == stint_start_ + phy_.difs +
                                       phy_.slot * backoff_slots_,
                    "CSMA stint expired off its committed backoff draw");
    start_transmission();
  } else if (++queue_.front().attempts > phy_.max_retries) {  // ACK timeout
    finish_current(false);
  } else {
    cw_ = std::min(cw_ * 2 + 1, phy_.cw_max);
    start_contention();
  }
}

void CsmaMac::start_transmission() {
  if (queue_.empty()) {
    set_state(State::kIdle);
    return;
  }
  set_state(State::kTransmit);
  transmit_head();
}

void CsmaMac::on_tx_end(FrameKind sent) {
  if (sent == FrameKind::kAck) {
    // The frame that just ended was an ACK we sent on behalf of a received
    // unicast; it did not come from the queue. Resume whatever we were
    // doing: kWaitAck keeps waiting (its timeout is untouched), contention
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
    timer_.arm(phy_.ack_timeout());
  } else {
    finish_current(true);
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

void CsmaMac::on_ack() {
  if (state_ != State::kWaitAck) return;
  timer_.cancel();
  finish_current(true);
}

}  // namespace wsn::mac
