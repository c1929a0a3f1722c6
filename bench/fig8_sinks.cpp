// Figure 8: sensitivity to the number of sinks (1..5) in the 350-node
// field. The first sink sits in the top-right corner; the rest are
// scattered uniformly.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  bench::open_csv("fig8_sinks");
  bench::print_figure_header("Figure 8", "impact of the number of sinks "
                             "(350 nodes, 5 corner sources)",
                             fields, secs, "sinks");
  for (std::size_t sinks = 1; sinks <= 5; ++sinks) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 350;
    cfg.duration = sim::Time::seconds(secs);
    cfg.num_sinks = sinks;
    const auto p = bench::run_point(std::to_string(sinks), cfg, fields);
    bench::print_point(p);
  }
  bench::print_expectation(
      "with more (scattered) sinks the energy gap closes — like random "
      "source placement — but greedy keeps a delivery-ratio edge because "
      "early aggregation lowers overall traffic.");
  bench::close_csv();
  return 0;
}
