// Figure 9: sensitivity to the number of sources — {2,5,8,11,14} corner
// sources in the 350-node field, perfect aggregation.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  bench::open_csv("fig9_sources");
  bench::print_figure_header("Figure 9", "impact of the number of sources "
                             "(350 nodes, perfect aggregation)",
                             fields, secs, "sources");
  for (std::size_t sources : {2u, 5u, 8u, 11u, 14u}) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 350;
    cfg.duration = sim::Time::seconds(secs);
    cfg.num_sources = sources;
    const auto p = bench::run_point(std::to_string(sources), cfg, fields);
    bench::print_point(p);
  }
  bench::print_expectation(
      "with many sources packed into the fixed 80×80 m corner the workload "
      "approaches the event-radius regime: paths merge early even without "
      "optimisation, so greedy's edge converges toward the opportunistic "
      "baseline.");
  bench::close_csv();
  return 0;
}
