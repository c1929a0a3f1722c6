// Shared fixture for protocol-level tests: builds a full stack
// (topology → channel → MACs → diffusion nodes → metrics) over explicit
// node positions so tests can craft exact topologies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/algorithm.hpp"
#include "mac/channel.hpp"
#include "mac/csma_mac.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace wsn::testing {

class ProtocolRig {
 public:
  // `with_metrics = false` builds the stack without the MetricsCollector
  // hook — used by the allocation-freeness test, where the per-packet
  // bookkeeping of the collector itself would count against the protocol.
  ProtocolRig(std::vector<net::Vec2> positions, core::Algorithm alg,
              diffusion::DiffusionParams params = {}, double range = 40.0,
              std::uint64_t seed = 1, bool with_metrics = true)
      : topo_{std::move(positions), range},
        channel_{sim_, topo_, phy_.propagation},
        params_{params} {
    sim::Rng master{seed};
    for (net::NodeId i = 0; i < topo_.node_count(); ++i) {
      macs_.push_back(std::make_unique<mac::CsmaMac>(
          sim_, channel_, i, phy_, energy_, master.fork(100 + i)));
      nodes_.push_back(core::make_diffusion_node(
          alg, sim_, *macs_[i], topo_.position(i), params_,
          master.fork(500 + i), with_metrics ? &collector_ : nullptr));
    }
  }

  void start_all() {
    for (auto& n : nodes_) n->start();
  }

  diffusion::DiffusionNode& node(net::NodeId i) { return *nodes_[i]; }
  mac::CsmaMac& mac(net::NodeId i) { return *macs_[i]; }
  sim::Simulator& sim() { return sim_; }
  stats::MetricsCollector& collector() { return collector_; }
  const net::Topology& topology() const { return topo_; }
  /// Position of `nb` in `neighbors(at)`: the slot the channel hands `at`
  /// with a frame from `nb` (tests that inject frames pass it).
  [[nodiscard]] std::uint32_t slot(net::NodeId at, net::NodeId nb) const {
    const auto nbrs = topo_.neighbors(at);
    return static_cast<std::uint32_t>(
        std::find(nbrs.begin(), nbrs.end(), nb) - nbrs.begin());
  }

  void run_for(double seconds) { sim_.run_until(sim::Time::seconds(seconds)); }

  /// Everything-field rect for make_sink (covers negative coordinates too).
  [[nodiscard]] net::Rect whole_field() const {
    return {-10000.0, -10000.0, 10000.0, 10000.0};
  }

 private:
  sim::Simulator sim_;
  net::Topology topo_;
  mac::PhyParams phy_;
  mac::Channel channel_;
  mac::EnergyParams energy_;
  diffusion::DiffusionParams params_;
  stats::MetricsCollector collector_;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs_;
  std::vector<std::unique_ptr<diffusion::DiffusionNode>> nodes_;
};

}  // namespace wsn::testing
