// Shared fixture for protocol-level tests: builds the full stack through
// scenario::Network (channel → CSMA MACs → diffusion nodes, with metrics)
// over explicit node positions so tests can craft exact topologies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace wsn::testing {

class ProtocolRig {
 public:
  // `with_metrics = false` builds the stack with no MetricsCollector (a
  // null pointer) — used by the allocation-freeness test, where the
  // per-packet bookkeeping of the collector itself would count against
  // the protocol.
  ProtocolRig(std::vector<net::Vec2> positions, core::Algorithm alg,
              diffusion::DiffusionParams params = {}, double range = 40.0,
              std::uint64_t seed = 1, bool with_metrics = true)
      : topo_{std::move(positions), range},
        network_{sim_, topo_, config(alg, params), sim::Rng{seed},
                 with_metrics ? &collector_ : nullptr} {}

  void start_all() { network_.start(); }

  diffusion::DiffusionNode& node(net::NodeId i) { return network_.node(i); }
  mac::MacBase& mac(net::NodeId i) { return network_.mac(i); }
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

  /// Runs to the absolute time `seconds`.
  void run_until(double seconds) {
    sim_.run_until(sim::Time::seconds(seconds));
  }

  /// Everything-field rect for make_sink (covers negative coordinates too).
  [[nodiscard]] net::Rect whole_field() const {
    return {-10000.0, -10000.0, 10000.0, 10000.0};
  }

 private:
  /// A CSMA stack with the default radio, running `alg` with `params`.
  static scenario::ExperimentConfig config(
      core::Algorithm alg, const diffusion::DiffusionParams& params) {
    scenario::ExperimentConfig config;
    config.algorithm = alg;
    config.diffusion = params;
    return config;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  stats::MetricsCollector collector_;
  scenario::Network network_;
};

}  // namespace wsn::testing
