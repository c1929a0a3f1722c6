#include "mac/tdma_mac.hpp"

#include <utility>

namespace wsn::mac {

TdmaMac::TdmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
                 std::uint32_t num_slots, const PhyParams& phy,
                 const TdmaParams& params, const EnergyParams& energy)
    : MacBase{sim, channel, id, energy, phy.queue_limit},
      phy_{phy},
      params_{params},
      slot_{params.slot(phy)},
      num_slots_{num_slots},
      slot_timer_{sim, [this] { on_slot_start(); }} {
  slot_timer_.arm(slot_ * id);
}

void TdmaMac::schedule_next_slot() { slot_timer_.arm(cycle_duration()); }

void TdmaMac::send(net::Frame frame) { enqueue(std::move(frame)); }

void TdmaMac::on_power_change(bool alive) {
  if (!alive) {
    awaiting_ack_ = false;
    slot_timer_.cancel();
    return;
  }
  // Rejoin the schedule at our next slot boundary. The phase is taken
  // non-negative: before our first slot `now - offset` is below zero.
  const auto cycle = cycle_duration().as_nanos();
  const auto offset = (slot_ * id_).as_nanos();
  const auto now = sim_->now().as_nanos();
  const auto phase = ((now - offset) % cycle + cycle) % cycle;
  slot_timer_.arm(sim::Time::nanos(phase == 0 ? 0 : cycle - phase));
}

void TdmaMac::on_slot_start() {
  schedule_next_slot();
  if (!alive() || queue_.empty() || transmitting()) return;
  const net::Frame& head = queue_.front().frame;
  awaiting_ack_ = head.dst != net::kBroadcast;
  transmit_head(phy_.frame_airtime(head.bytes));
}

void TdmaMac::on_tx_end(FrameKind sent) {
  if (sent == FrameKind::kAck || queue_.empty()) return;
  if (queue_.front().frame.dst == net::kBroadcast) {
    complete_head(true);
    return;
  }
  // Unicast: wait out the ACK window at the end of our slot.
  const sim::Time window =
      phy_.sifs + phy_.ack_airtime() + params_.guard + sim::Time::micros(4);
  sim_->schedule_in(window, [this] {
    if (!alive() || !awaiting_ack_ || queue_.empty()) return;
    awaiting_ack_ = false;
    // Otherwise the frame stays queued for our next slot.
    if (++queue_.front().attempts > params_.max_retries) complete_head(false);
  });
}

void TdmaMac::deliver(const Transmission& tx, std::uint32_t from_slot) {
  const net::Frame& f = tx.frame;
  if (tx.kind == FrameKind::kAck) {
    if (awaiting_ack_ && !queue_.empty()) {
      awaiting_ack_ = false;
      complete_head(true);
    }
    return;
  }
  if (f.dst == id_) {
    // Acknowledge inside the sender's slot, a SIFS after the data.
    sim_->schedule_in(phy_.sifs, [this, to = f.src] {
      if (!alive() || transmitting()) return;
      transmit_ack(to, phy_.ack_airtime());
    });
  }
  hand_up(tx, from_slot);
}

}  // namespace wsn::mac
