// Shared fixture for link-layer tests: one MAC (CSMA/CA or TDMA) and one
// recording user per node over explicit node positions.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mac/channel.hpp"
#include "mac/csma_mac.hpp"
#include "mac/tdma_mac.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace wsn::testing {

/// Records what the MAC hands up (with the sender's neighbour slot) and how
/// its unicasts ended.
struct RecordingUser final : mac::MacUser {
  std::vector<net::Frame> received;
  std::vector<std::uint32_t> slots;  ///< from_slot of each received frame
  int failed = 0;
  int succeeded = 0;

  void mac_receive(const net::Frame& f, std::uint32_t from_slot) override {
    received.push_back(f);
    slots.push_back(from_slot);
  }
  void mac_send_failed(const net::Frame&) override { ++failed; }
  void mac_send_succeeded(const net::Frame&) override { ++succeeded; }
};

enum class MacKind { kCsma, kTdma };

class MacRig {
 public:
  MacRig(std::vector<net::Vec2> positions, double range, double cs_range = 0.0,
         MacKind kind = MacKind::kCsma)
      : topo_{std::move(positions), range, cs_range},
        channel_{sim_, topo_, phy_.propagation} {
    const auto n = static_cast<std::uint32_t>(topo_.node_count());
    for (net::NodeId i = 0; i < n; ++i) {
      users_.push_back(std::make_unique<RecordingUser>());
      if (kind == MacKind::kCsma) {
        macs_.push_back(std::make_unique<mac::CsmaMac>(
            sim_, channel_, i, phy_, energy_, sim::Rng{100 + i}));
      } else {
        macs_.push_back(
            std::make_unique<mac::TdmaMac>(sim_, channel_, i, n, phy_, tdma_,
                                           energy_));
      }
      macs_.back()->set_user(users_.back().get());
    }
  }

  mac::MacBase& mac(net::NodeId i) { return *macs_[i]; }
  RecordingUser& user(net::NodeId i) { return *users_[i]; }
  sim::Simulator& sim() { return sim_; }
  mac::Channel& channel() { return channel_; }
  const net::Topology& topology() const { return topo_; }
  const mac::PhyParams& phy() const { return phy_; }
  const mac::TdmaParams& tdma() const { return tdma_; }
  const mac::EnergyParams& energy() const { return energy_; }
  /// One TDMA cycle, as the schedule defines it (throws on a CSMA rig).
  [[nodiscard]] sim::Time tdma_cycle() const {
    return dynamic_cast<const mac::TdmaMac&>(*macs_.front()).cycle_duration();
  }

  static net::Frame frame(net::NodeId dst, std::uint32_t bytes = 64) {
    net::Frame f;
    f.dst = dst;
    f.bytes = bytes;
    return f;
  }

 private:
  sim::Simulator sim_;
  net::Topology topo_;
  mac::PhyParams phy_;
  mac::Channel channel_;
  mac::TdmaParams tdma_;
  mac::EnergyParams energy_;
  std::vector<std::unique_ptr<RecordingUser>> users_;
  std::vector<std::unique_ptr<mac::MacBase>> macs_;
};

}  // namespace wsn::testing
