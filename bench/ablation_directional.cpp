// Ablation: §2's directional interest dissemination.
//
// The paper's evaluation floods interests network-wide; §2 also sketches
// sending interests "only to a subset of neighbors in the direction of the
// specified region". With the task scoped to the source corner, directional
// propagation confines the interest/exploratory overhead to the
// sink-to-region corridor.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Ablation: interest dissemination, flood vs directional "
              "(greedy, task scoped to the 80x80 m corner) ===\n");
  std::printf("fields/point=%d sim=%.0fs\n", fields, secs);
  std::printf("%-8s %-13s | %-12s | %-12s | %-9s | %-9s\n", "nodes",
              "mode", "energy total", "energy tx+rx", "delay [s]",
              "delivery");
  for (std::size_t nodes : {100u, 250u, 350u}) {
    for (auto mode : {diffusion::InterestPropagation::kFlood,
                      diffusion::InterestPropagation::kDirectional}) {
      scenario::ExperimentConfig cfg;
      cfg.field.nodes = nodes;
      cfg.algorithm = core::Algorithm::kGreedy;
      cfg.duration = sim::Time::seconds(secs);
      cfg.interest_region = cfg.source_rect;  // task scoped to the corner
      cfg.diffusion.interest_propagation = mode;
      const auto p = scenario::run_replicates(cfg, fields, 1);
      const char* mode_name =
          mode == diffusion::InterestPropagation::kFlood ? "flood"
                                                         : "directional";
      std::printf("%-8zu %-13s | %12.5f | %12.5f | %9.3f | %9.3f\n", nodes,
                  mode_name, p.energy.mean(), p.active_energy.mean(),
                  p.delay.mean(), p.delivery.mean());
    }
  }
  std::printf("expected: the corridor trims the interest-flood share of "
              "tx+rx energy (≈10-15%% at 350 nodes), delivery intact — the "
              "optimisation §2 hints at. Exploratory events already follow "
              "gradients, so they stay inside the corridor too.\n");
  return 0;
}
