// The paper's §2 motivating scenario: tracking animals in a wilderness
// refuge. A user (sink) tasks the network with an interest scoped to a
// remote sub-region; only sensors detecting animals *inside that region*
// become sources. This example skips run_experiment to show how a bespoke
// deployment is assembled: draw a field, build the stack on it with
// scenario::Network, give nodes their roles, start and run.
//
//   $ ./animal_tracking [seed]
#include <cstdio>

#include "cli.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
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

  // --- the default stack: CSMA MACs running greedy aggregation ---
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  scenario::Network network{sim, topo, scenario::ExperimentConfig{}, master,
                            &metrics};

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
  network.node(user).make_sink(watch_region);

  // Animals wander: sensors all over the park detect movement, but only
  // those inside the tasked region will answer the interest.
  sim::Rng wander = master.fork(9);
  int in_region = 0;
  for (int i = 0; i < 10; ++i) {
    const auto id = static_cast<net::NodeId>(
        wander.uniform_int(0, static_cast<std::int64_t>(topo.node_count()) - 1));
    network.node(id).set_detecting(true);
    if (watch_region.contains(topo.position(id))) ++in_region;
  }
  network.start();

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
  for (net::NodeId id = 0; id < network.size(); ++id) {
    active += network.node(id).is_active_source() ? 1 : 0;
  }
  std::printf("Active sources (must equal in-region detectors): %d\n", active);
  std::printf("Track updates delivered to the user: %llu distinct events\n",
              static_cast<unsigned long long>(metrics.distinct_received()));
  std::printf("Mean track latency: %.3f s\n", metrics.delay().mean());

  double joules = 0.0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    joules += network.mac(id).energy_joules(sim.now());
  }
  std::printf("Network energy over %.0f s: %.1f J total (%.3f J/node)\n",
              sim.now().as_seconds(), joules,
              joules / static_cast<double>(topo.node_count()));
  return active == in_region ? 0 : 1;
}
