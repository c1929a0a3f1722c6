#include "scenario/network.hpp"

#include <cstdint>

#include "core/algorithm.hpp"
#include "mac/csma_mac.hpp"
#include "mac/tdma_mac.hpp"

namespace wsn::scenario {

Network::Network(sim::Simulator& sim, const net::Topology& topology,
                 const ExperimentConfig& config, const sim::Rng& master,
                 stats::MetricsCollector* metrics)
    : channel_{sim, topology, config.phy.propagation} {
  const std::size_t n = topology.node_count();
  macs_.reserve(n);
  for (net::NodeId id = 0; id < n; ++id) {
    if (config.mac_type == MacType::kCsma) {
      macs_.push_back(std::make_unique<mac::CsmaMac>(
          sim, channel_, id, config.phy, config.energy,
          master.fork(1000 + id)));
    } else {
      macs_.push_back(std::make_unique<mac::TdmaMac>(
          sim, channel_, id, static_cast<std::uint32_t>(n), config.phy,
          config.tdma, config.energy));
    }
  }
  nodes_.reserve(n);
  for (net::NodeId id = 0; id < n; ++id) {
    nodes_.push_back(core::make_diffusion_node(
        config.algorithm, sim, *macs_[id], topology.position(id),
        config.diffusion, master.fork(2000 + id), metrics));
  }
}

void Network::start() {
  for (auto& node : nodes_) node->start();
}

}  // namespace wsn::scenario
