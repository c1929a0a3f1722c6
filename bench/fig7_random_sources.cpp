// Figure 7: sensitivity to source placement — the 5 sources are scattered
// uniformly over the whole field instead of the 80×80 m corner.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  bench::open_csv("fig7_random_sources");
  bench::print_figure_header("Figure 7",
                             "random source placement (5 sources anywhere)",
                             fields, secs, "nodes");
  for (std::size_t nodes : bench::density_sweep()) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = nodes;
    cfg.duration = sim::Time::seconds(secs);
    cfg.source_placement = scenario::SourcePlacement::kRandom;
    const auto p = bench::run_point(std::to_string(nodes), cfg, fields);
    bench::print_point(p);
  }
  bench::print_expectation(
      "greedy's savings shrink (paper: to ~30%) because scattered sources "
      "offer little early path sharing even on a greedy tree.");
  bench::close_csv();
  return 0;
}
