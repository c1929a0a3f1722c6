#include "mac/tdma_mac.hpp"

#include <utility>

namespace wsn::mac {

TdmaMac::TdmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
                 std::uint32_t num_slots, const PhyParams& phy,
                 const TdmaParams& params, const EnergyParams& energy)
    : MacBase{sim, channel, id, phy, energy},
      params_{params},
      slot_{params.slot(phy)},
      num_slots_{num_slots},
      timer_{sim, [this] { on_timer(); }} {}

void TdmaMac::send(net::Frame frame) {
  if (enqueue(std::move(frame))) arm_slot();
}

void TdmaMac::arm_slot() {
  if (queue_.empty() || timer_.armed()) return;
  // The phase is taken non-negative: before our first slot `now - offset`
  // is below zero.
  const auto cycle = cycle_duration().as_nanos();
  const auto offset = (slot_ * id_).as_nanos();
  const auto now = sim_->now().as_nanos();
  const auto phase = ((now - offset) % cycle + cycle) % cycle;
  timer_.arm(sim::Time::nanos(phase == 0 ? 0 : cycle - phase));
}

void TdmaMac::on_power_change(bool alive) {
  // Power-down flushed the queue, so a revived MAC waits for a send.
  if (alive) return;
  awaiting_ack_ = false;
  timer_.cancel();
}

void TdmaMac::on_timer() {
  if (awaiting_ack_) {
    // The ACK window closed empty: retry in a later slot, or give up.
    awaiting_ack_ = false;
    if (++queue_.front().attempts > params_.max_retries) complete_head(false);
    arm_slot();
  } else if (transmitting()) {
    timer_.arm(cycle_duration());  // still on the air: skip this slot
  } else {
    WSN_AUDIT_CHECK(!queue_.empty(), "TDMA slot armed over an empty queue");
    transmit_head();
  }
}

void TdmaMac::on_tx_end(FrameKind sent) {
  if (sent == FrameKind::kAck || queue_.empty()) return;
  if (queue_.front().frame.dst == net::kBroadcast) {
    complete_head(true);
    arm_slot();
    return;
  }
  // Unicast: wait out the ACK window at the end of our slot.
  awaiting_ack_ = true;
  timer_.arm(phy_.sifs + phy_.ack_airtime() + params_.guard +
             sim::Time::micros(4));
}

void TdmaMac::on_ack() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  timer_.cancel();
  complete_head(true);
  arm_slot();
}

}  // namespace wsn::mac
