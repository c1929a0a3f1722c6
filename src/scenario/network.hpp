// The simulated protocol stack of paper §5.1: one shared radio channel, one
// MAC per node and one directed-diffusion node per MAC.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "diffusion/node.hpp"
#include "mac/channel.hpp"
#include "mac/mac_base.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace wsn::scenario {

/// Builds and owns the stack over `topology`: the channel, then every MAC
/// in id order (`config.mac_type`; TDMA gets one slot per node), then every
/// diffusion node in id order (`config.algorithm`). MAC `id` draws from
/// `master.fork(1000 + id)` and node `id` from `master.fork(2000 + id)`.
///
/// Building the stack draws nothing and, for CSMA, schedules nothing (a
/// TDMA MAC arms its first slot), so the construction order moves no
/// result. Callers give nodes their roles, then call start().
///
/// Every node notes its items to `metrics` (none when null). `sim`,
/// `topology` and `metrics` must outlive the network; the config and the
/// master stream are not kept.
class Network {
 public:
  Network(sim::Simulator& sim, const net::Topology& topology,
          const ExperimentConfig& config, const sim::Rng& master,
          stats::MetricsCollector* metrics);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return macs_.size(); }
  [[nodiscard]] mac::MacBase& mac(net::NodeId id) { return *macs_[id]; }
  [[nodiscard]] diffusion::DiffusionNode& node(net::NodeId id) {
    return *nodes_[id];
  }

  /// Starts every node's periodic maintenance.
  void start();

 private:
  mac::Channel channel_;
  std::vector<std::unique_ptr<mac::MacBase>> macs_;
  std::vector<std::unique_ptr<diffusion::DiffusionNode>> nodes_;
};

}  // namespace wsn::scenario
