#include "mac/mac_base.hpp"

#include <utility>

namespace wsn::mac {

void MacBase::set_alive(bool alive) {
  RadioRecord& r = *radio_;
  if (alive == r.alive) return;
  r.alive = alive;
  if (!alive) {
    // Power down: abort any in-flight frame, stop drawing power, and reset
    // the record but for the receive time charged up to now. Arrivals are
    // taken in again only from the next start sweep after power-up.
    if (outgoing_tx_ != nullptr) outgoing_tx_->aborted = true;
    outgoing_tx_ = nullptr;
    audit_completed_ += queue_.size();  // power-down flush drops the queue
    queue_.clear();
    const RxCharge rx = r.rx;
    r = RadioRecord{};
    r.rx = rx;
    r.rx.power_down(sim_->now());
    tx_end_timer_.cancel();
  }
  meter_.set_state(sim_->now(), alive ? RadioState::kIdle : RadioState::kOff);
  on_power_change(alive);
}

bool MacBase::enqueue(net::Frame frame) {
  if (!alive()) return false;
  if (queue_.size() >= queue_limit_) {
    ++stats_.drops_queue_full;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacDrop, id_, frame.dst,
                   trace::DropReason::kQueueFull, queue_.size());
    return false;
  }
  frame.src = id_;
  queue_.push_back(Outgoing{std::move(frame), 0});
  ++audit_accepted_;
  audit_frame_conservation();
  return true;
}

void MacBase::begin_tx(const net::Frame& frame, FrameKind kind,
                       sim::Time airtime) {
  WSN_AUDIT_CHECK(!radio_->transmitting, "transmission started mid-frame");
  radio_->transmitting = true;
  // Our own carrier corrupts anything we were mid-receiving (half duplex),
  // and the receive time charged inside it becomes transmit time.
  radio_->clean = nullptr;
  radio_->rx.begin_tx(sim_->now(), sim_->now() + airtime);
  meter_.set_state(sim_->now(), RadioState::kTx);
  Transmission* tx = channel_->begin_transmission(id_, frame, kind, airtime);
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacTxStart, id_, frame.dst, tx->id,
                 frame.bytes);
  if (kind == FrameKind::kData) outgoing_tx_ = tx;
  tx_end_timer_.arm(airtime);
}

void MacBase::transmit_head(sim::Time airtime) {
  const Outgoing& out = queue_.front();
  begin_tx(out.frame, FrameKind::kData, airtime);
  ++stats_.frames_sent;
  stats_.bytes_sent += out.frame.bytes;
  if (out.attempts > 0) ++stats_.retries;
}

void MacBase::transmit_ack(net::NodeId to, sim::Time airtime) {
  net::Frame ack;
  ack.src = id_;
  ack.dst = to;
  ack.bytes = 0;
  begin_tx(ack, FrameKind::kAck, airtime);
  ++stats_.acks_sent;
}

void MacBase::end_tx() {
  radio_->transmitting = false;
  // Only data frames are kept in outgoing_tx_, so its absence means the
  // frame that just ended was an ACK (traced with tx id 0).
  const FrameKind sent =
      outgoing_tx_ != nullptr ? FrameKind::kData : FrameKind::kAck;
  WSN_AUDIT_CHECK(outgoing_tx_ == nullptr || outgoing_tx_->src == id_,
                  "outgoing frame's channel slot reused before its end");
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacTxEnd, id_, trace::kNoPeer,
                 outgoing_tx_ != nullptr ? outgoing_tx_->id : 0, 0);
  outgoing_tx_ = nullptr;
  meter_.set_state(sim_->now(), RadioState::kIdle);
  on_tx_end(sent);
}

void MacBase::complete_head(bool success) {
  const Outgoing& out = queue_.front();
  const net::Frame& f = out.frame;
  if (!success) {
    ++stats_.drops_retry_exhausted;
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacDrop, id_, f.dst,
                   trace::DropReason::kRetryExhausted, out.attempts);
  }
  if (user_ != nullptr && f.dst != net::kBroadcast) {
    if (success) {
      user_->mac_send_succeeded(f);
    } else {
      user_->mac_send_failed(f);
    }
  }
  queue_.pop_front();
  ++audit_completed_;
  audit_frame_conservation();
}

void MacBase::hand_up(const Transmission& tx, std::uint32_t from_slot) {
  const net::Frame& f = tx.frame;
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kMacRx, id_, f.src, tx.id, f.bytes);
  ++stats_.frames_delivered;
  if (user_ != nullptr) user_->mac_receive(f, from_slot);
}

}  // namespace wsn::mac
