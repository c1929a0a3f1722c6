// Quickstart: run one greedy-aggregation experiment and print the paper's
// three metrics next to the opportunistic baseline.
//
//   $ ./quickstart [nodes] [seed]
//
// Defaults: 150 nodes (≈19 neighbours), seed 1, 200 simulated seconds.
#include <cstdio>

#include "cli.hpp"
#include "scenario/experiment.hpp"

int main(int argc, char** argv) {
  using namespace wsn;

  scenario::ExperimentConfig cfg;
  cfg.field.nodes = static_cast<std::size_t>(
      cli::long_arg(argc, argv, 1, "nodes", 150, 1, cli::kMaxCount));
  cfg.seed = cli::seed_arg(argc, argv, 2, 1);
  cfg.duration = sim::Time::seconds(200.0);

  std::printf("Field: %zu nodes in %.0fx%.0f m, radio range %.0f m\n",
              cfg.field.nodes, cfg.field.side_m, cfg.field.side_m,
              cfg.field.radio_range_m);
  std::printf("Workload: %zu corner sources -> %zu sink(s), %.0f s\n\n",
              cfg.num_sources, cfg.num_sinks, cfg.duration.as_seconds());

  std::printf("%-14s %12s %10s %10s %9s %8s\n", "algorithm", "energy[J/ev]",
              "delay[s]", "delivery", "frames", "degree");
  for (core::Algorithm alg :
       {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    cfg.algorithm = alg;
    const scenario::RunResult res = cli::run_or_exit(cfg);
    std::printf("%-14s %12.4f %10.3f %10.3f %9llu %8.1f\n",
                std::string(core::to_string(alg)).c_str(),
                res.metrics.avg_dissipated_energy, res.metrics.avg_delay,
                res.metrics.delivery_ratio,
                static_cast<unsigned long long>(res.frames_sent),
                res.average_degree);
  }
  return 0;
}
