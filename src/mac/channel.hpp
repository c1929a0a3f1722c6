// Shared wireless medium: delivers transmissions to in-range radios.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"

namespace wsn::mac {

class MacBase;

/// Frame classes on the air.
enum class FrameKind : std::uint8_t { kData, kAck };

/// One transmission in flight. Shared between the channel and every
/// receiver so a late abort (transmitter dies mid-frame) corrupts all
/// pending receptions.
struct Transmission {
  net::Frame frame;
  FrameKind kind = FrameKind::kData;
  sim::Time start;
  sim::Time end;
  bool aborted = false;
  std::uint64_t id = 0;
  net::NodeId src = 0;  ///< transmitter; keys the arrival sweeps
};

using TransmissionPtr = std::shared_ptr<Transmission>;

/// Broadcast medium over a unit-disk topology.
///
/// When a MAC starts transmitting, every live in-range radio sees the
/// carrier for the frame's airtime; overlapping arrivals at a receiver
/// corrupt each other (no capture). Interference range equals radio range.
class Channel {
 public:
  Channel(sim::Simulator& sim, const net::Topology& topo,
          sim::Time propagation)
      : sim_{&sim},
        topo_{&topo},
        propagation_{propagation},
        macs_(topo.node_count(), nullptr) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers the MAC serving `id`. Must be called for every node before
  /// the simulation starts.
  void attach(net::NodeId id, MacBase* mac) { macs_[id] = mac; }

  /// Starts a transmission from `src`. Exactly TWO events are scheduled —
  /// an arrival-start sweep after the propagation delay and an arrival-end
  /// sweep one airtime later — each delivering to every audible radio in
  /// the topology's partitioned audible-list order (decodable neighbours
  /// first, then carrier-sense-only, both by ascending id). Dead or
  /// detached radios are skipped at sweep (delivery) time. Returns the
  /// in-flight record so the transmitter can abort it (node failure
  /// mid-frame).
  TransmissionPtr begin_transmission(net::NodeId src, net::Frame frame,
                                     FrameKind kind, sim::Time airtime);

  [[nodiscard]] const net::Topology& topology() const { return *topo_; }
  /// Id of the latest transmission whose arrival-start sweep has run.
  /// Start sweeps run in id order (one fixed propagation delay, FIFO ties),
  /// so every transmission with a larger id is still to be swept.
  [[nodiscard]] std::uint64_t last_start_swept() const {
    return last_start_swept_;
  }

 private:
  void sweep_arrival_starts(const TransmissionPtr& tx);
  void sweep_arrival_ends(const TransmissionPtr& tx);

  sim::Simulator* sim_;
  const net::Topology* topo_;
  sim::Time propagation_;
  std::vector<MacBase*> macs_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t last_start_swept_ = 0;
};

}  // namespace wsn::mac
