// Figure 10: the Figure-9 sweep under *linear* aggregation
// (z(S) = d·28 B + 36 B — lossless packing, headers are the only saving).
#include "agg/aggregation_fn.hpp"
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  bench::open_csv("fig10_linear");
  bench::print_figure_header("Figure 10", "linear aggregation z = 28d + 36 "
                             "(350 nodes, corner sources)",
                             fields, secs, "sources");
  for (std::size_t sources : {2u, 5u, 8u, 11u, 14u}) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 350;
    cfg.duration = sim::Time::seconds(secs);
    cfg.num_sources = sources;
    cfg.diffusion.aggregation = agg::kLinear;
    const auto p = bench::run_point(std::to_string(sources), cfg, fields);
    bench::print_point(p);
  }
  bench::print_expectation(
      "the inefficient aggregation function bites harder as sources grow: "
      "at 10+ sources greedy's savings are a few points lower than under "
      "perfect aggregation (paper: 36% vs 43% at 10 sources).");
  bench::close_csv();
  return 0;
}
