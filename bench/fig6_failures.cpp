// Figure 6: impact of node failures — every 30 s, 20% of the nodes are
// switched off (no settling time), across the density sweep.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  bench::open_csv("fig6_failures");
  bench::print_figure_header(
      "Figure 6", "impact of node failures (20% down, rotating every 30 s)",
      fields, secs, "nodes");
  for (std::size_t nodes : bench::density_sweep()) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = nodes;
    cfg.duration = sim::Time::seconds(secs);
    cfg.failures.enabled = true;
    const auto p = bench::run_point(std::to_string(nodes), cfg, fields);
    bench::print_point(p);
  }
  bench::print_expectation(
      "delivery drops for both; greedy suffers more at low density (single "
      "tree, no spare paths) and less at high density (smaller tree exposes "
      "fewer nodes to failure); opportunistic pays more energy per received "
      "event where its delivery is lower.");
  bench::close_csv();
  return 0;
}
