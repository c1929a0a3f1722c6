// Multi-sink monitoring (paper §5.4, Figure 8 scenario): several users pull
// the same corner phenomenon from different places in the field. Shows how
// the shared gradient field serves several sinks at once and compares the
// two instantiations as sinks are added.
//
//   $ ./multisink_monitoring [max_sinks]
#include <cstdio>

#include "cli.hpp"
#include "scenario/experiment.hpp"

int main(int argc, char** argv) {
  using namespace wsn;
  // 200 nodes less the 5 sources bound the sink count.
  const auto max_sinks = static_cast<std::size_t>(
      cli::long_arg(argc, argv, 1, "max_sinks", 4, 1, 195));

  std::printf("Monitoring a corner phenomenon from 1..%zu sinks "
              "(200 nodes, 5 corner sources, 120 s)\n\n",
              max_sinks);
  std::printf("%-6s %-14s %10s %10s %10s %10s\n", "sinks", "algorithm",
              "energy", "tx+rx", "delivery", "delay[s]");

  for (std::size_t sinks = 1; sinks <= max_sinks; ++sinks) {
    for (auto alg :
         {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
      scenario::ExperimentConfig cfg;
      cfg.field.nodes = 200;
      cfg.num_sinks = sinks;
      cfg.algorithm = alg;
      cfg.duration = sim::Time::seconds(120.0);
      cfg.seed = 2;
      const auto res = scenario::run_experiment(cfg);
      std::printf("%-6zu %-14s %10.5f %10.5f %10.3f %10.3f\n", sinks,
                  std::string(core::to_string(alg)).c_str(),
                  res.metrics.avg_dissipated_energy,
                  res.metrics.avg_active_energy, res.metrics.delivery_ratio,
                  res.metrics.avg_delay);
    }
  }
  std::printf("\nExpect the greedy advantage to shrink as scattered sinks "
              "pull the tree apart (paper Figure 8).\n");
  return 0;
}
