// Slotted TDMA MAC (paper §4.2: "in a TDMA MAC, one might match the
// aggregation time to a multiple of the TDMA frame duration").
#pragma once

#include <cstdint>

#include "mac/mac_base.hpp"
#include "mac/params.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace wsn::mac {

/// TDMA's own choices; the radio itself (bitrate, preamble, header and ACK
/// sizes, SIFS, queue depth) is the shared PhyParams. The default is a
/// *global* round-robin schedule — every node owns one slot per cycle, so
/// there is no spatial reuse but also no collision anywhere (appropriate
/// for the paper's 200 m × 200 m fields, where the carrier-sense diameter
/// nearly covers the field and two-hop slot reuse would buy little).
struct TdmaParams {
  /// Largest payload one slot can carry; the slot length is derived from
  /// it (frame airtime + SIFS + ACK + guard).
  std::uint32_t max_payload_bytes = 160;
  sim::Time guard = sim::Time::micros(20);
  int max_retries = 2;  ///< unicast resend attempts (next cycles)

  /// Slot length on `phy`: the largest frame, SIFS, the ACK and the guard.
  [[nodiscard]] sim::Time slot(const PhyParams& phy) const {
    return phy.frame_airtime(max_payload_bytes) + phy.sifs +
           phy.ack_airtime() + guard;
  }
};

/// Collision-free slotted MAC. Node `id` owns slot `id` of every cycle of
/// `num_slots` slots; in its slot it transmits the head of its queue
/// (fragmenting is the upper layer's problem — oversized frames are sent
/// anyway in a stretched slot, which is safe because the schedule is
/// global). Unicast frames are acknowledged within the slot and retried in
/// later cycles.
class TdmaMac final : public MacBase {
 public:
  TdmaMac(sim::Simulator& sim, Channel& channel, net::NodeId id,
          std::uint32_t num_slots, const PhyParams& phy,
          const TdmaParams& params, const EnergyParams& energy);

  void send(net::Frame frame) override;

  [[nodiscard]] sim::Time cycle_duration() const { return slot_ * num_slots_; }

 private:
  void on_tx_end(FrameKind sent) override;
  void on_power_change(bool alive) override;
  void deliver(const Transmission& tx, std::uint32_t from_slot) override;
  void on_slot_start();
  void schedule_next_slot();

  PhyParams phy_;
  TdmaParams params_;
  sim::Time slot_;  ///< data + SIFS + ACK + guard
  std::uint32_t num_slots_;
  bool awaiting_ack_ = false;
  sim::Timer slot_timer_;
};

}  // namespace wsn::mac
