// Diagnostic dump of one run: protocol counters, MAC health, tree shape.
// Useful when tuning parameters or investigating delivery problems.
//
//   $ ./diagnose [nodes] [seed] [algorithm: 0=opportunistic 1=greedy]
#include <cstdio>

#include "cli.hpp"
#include "scenario/experiment.hpp"

int main(int argc, char** argv) {
  using namespace wsn;

  scenario::ExperimentConfig cfg;
  cfg.field.nodes = static_cast<std::size_t>(
      cli::long_arg(argc, argv, 1, "nodes", 150, 1, cli::kMaxCount));
  cfg.seed = cli::seed_arg(argc, argv, 2, 1);
  cfg.algorithm = cli::long_arg(argc, argv, 3, "algorithm", 0, 0, 1) == 1
                      ? core::Algorithm::kGreedy
                      : core::Algorithm::kOpportunistic;
  cfg.duration = sim::Time::seconds(200.0);

  const scenario::RunResult res = cli::run_or_exit(cfg);

  std::printf("algorithm           : %s\n",
              std::string(core::to_string(cfg.algorithm)).c_str());
  std::printf("avg degree          : %.1f\n", res.average_degree);
  std::printf("energy [J/node/ev]  : %.5f\n", res.metrics.avg_dissipated_energy);
  std::printf("active energy       : %.5f\n", res.metrics.avg_active_energy);
  std::printf("delay [s]           : %.3f\n", res.metrics.avg_delay);
  std::printf("delivery ratio      : %.3f\n", res.metrics.delivery_ratio);
  std::printf("generated distinct  : %llu\n",
              (unsigned long long)res.metrics.distinct_generated);
  std::printf("received distinct   : %llu\n",
              (unsigned long long)res.metrics.distinct_received);
  std::printf("frames sent         : %llu\n", (unsigned long long)res.frames_sent);
  std::printf("arrivals corrupted  : %llu\n",
              (unsigned long long)res.arrivals_corrupted);
  std::printf("MAC drops           : %llu\n", (unsigned long long)res.drops);
  const auto& p = res.protocol;
  std::printf("interests sent      : %llu\n", (unsigned long long)p.interests_sent);
  std::printf("exploratory sent    : %llu\n",
              (unsigned long long)p.exploratory_sent);
  std::printf("data sent           : %llu\n", (unsigned long long)p.data_sent);
  std::printf("icm sent            : %llu\n", (unsigned long long)p.icm_sent);
  std::printf("reinforcements sent : %llu\n",
              (unsigned long long)p.reinforcements_sent);
  std::printf("negatives sent      : %llu\n", (unsigned long long)p.negatives_sent);
  std::printf("repairs attempted   : %llu\n",
              (unsigned long long)p.repairs_attempted);
  std::printf("items dropped (no gradient): %llu\n",
              (unsigned long long)p.items_dropped_no_gradient);
  std::printf("aggregates received : %llu\n",
              (unsigned long long)p.aggregates_received);
  std::printf("tree edges at end   : %zu\n", res.tree_edges.size());
  return 0;
}
