// The paper's §2 motivating scenario: tracking animals in a wilderness
// refuge. A user (sink) tasks the network with an interest scoped to a
// remote sub-region; only sensors detecting animals *inside that region*
// become sources. This example drives the public API directly (no
// run_experiment) to show how a bespoke deployment is assembled.
//
//   $ ./animal_tracking [seed]
#include <cstdio>
#include <memory>
#include <vector>

#include "cli.hpp"
#include "core/algorithm.hpp"
#include "mac/channel.hpp"
#include "mac/csma_mac.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

int main(int argc, char** argv) {
  using namespace wsn;
  const auto seed = cli::seed_arg(argc, argv, 1, 4);

  // --- deploy 120 sensor nodes over a 200x200 m refuge ---
  sim::Rng master{seed};
  sim::Rng field_rng = master.fork(1);
  net::FieldSpec spec;
  spec.nodes = 120;
  const net::Topology topo =
      net::generate_connected_topology(spec, field_rng).topology;

  sim::Simulator sim;
  mac::PhyParams phy;
  mac::Channel channel{sim, topo, phy.propagation};
  mac::EnergyParams energy;
  diffusion::DiffusionParams params;

  stats::MetricsCollector metrics;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
  std::vector<std::unique_ptr<diffusion::DiffusionNode>> nodes;
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    macs.push_back(std::make_unique<mac::CsmaMac>(sim, channel, id, phy,
                                                  energy,
                                                  master.fork(100 + id)));
    nodes.push_back(core::make_diffusion_node(
        core::Algorithm::kGreedy, sim, *macs[id], topo.position(id), params,
        master.fork(500 + id), &metrics));
  }

  // --- the tracking task: animals in the north-west quadrant ---
  const net::Rect watch_region{0.0, 100.0, 100.0, 200.0};

  // The user node is whichever sensor sits closest to the south-east corner
  // (the ranger station).
  net::NodeId user = 0;
  double best = 1e18;
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    const double d = distance(topo.position(id), {200.0, 0.0});
    if (d < best) {
      best = d;
      user = id;
    }
  }
  nodes[user]->make_sink(watch_region);

  // Animals wander: sensors all over the park detect movement, but only
  // those inside the tasked region will answer the interest.
  sim::Rng wander = master.fork(9);
  int in_region = 0;
  for (int i = 0; i < 10; ++i) {
    const auto id = static_cast<net::NodeId>(
        wander.uniform_int(0, static_cast<std::int64_t>(topo.node_count()) - 1));
    nodes[id]->set_detecting(true);
    if (watch_region.contains(topo.position(id))) ++in_region;
  }
  for (auto& n : nodes) n->start();

  std::printf("Wilderness refuge: %zu sensors, user node %u at (%.0f, %.0f)\n",
              topo.node_count(), user, topo.position(user).x,
              topo.position(user).y);
  std::printf("Interest region: x in [%.0f,%.0f], y in [%.0f,%.0f]\n",
              watch_region.x0, watch_region.x1, watch_region.y0,
              watch_region.y1);
  std::printf("Detecting sensors: 10 total, %d inside the tasked region\n\n",
              in_region);

  sim.run_until(sim::Time::seconds(120.0));

  int active = 0;
  for (auto& n : nodes) active += n->is_active_source() ? 1 : 0;
  std::printf("Active sources (must equal in-region detectors): %d\n", active);
  std::printf("Track updates delivered to the user: %llu distinct events\n",
              static_cast<unsigned long long>(metrics.distinct_received()));
  std::printf("Mean track latency: %.3f s\n", metrics.delay().mean());

  double joules = 0.0;
  for (auto& m : macs) joules += m->energy_joules(sim.now());
  std::printf("Network energy over %.0f s: %.1f J total (%.3f J/node)\n",
              sim.now().as_seconds(), joules,
              joules / static_cast<double>(topo.node_count()));
  return active == in_region ? 0 : 1;
}
