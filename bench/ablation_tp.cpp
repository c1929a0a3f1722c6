// Ablation: the positive-reinforcement wait T_p (paper §4.1).
//
// T_p is what gives the incremental-cost messages time to reveal a cheaper
// graft point before the sink commits. With T_p = 0 the greedy instantiation
// degenerates to a lowest-energy-path tree (each source gets its own
// shortest path; no deliberate sharing).
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Ablation: reinforcement wait T_p (greedy, 250 nodes) ===\n");
  std::printf("fields/point=%d sim=%.0fs\n", fields, secs);
  std::printf("%-8s | %-12s | %-12s | %-9s | %-9s\n", "T_p [s]",
              "energy total", "energy tx+rx", "delay [s]", "delivery");
  for (double tp : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 250;
    cfg.duration = sim::Time::seconds(secs);
    cfg.algorithm = core::Algorithm::kGreedy;
    cfg.diffusion.t_p = sim::Time::seconds(tp);
    const auto p = scenario::run_replicates(cfg, fields, 1);
    std::printf("%-8.2f | %12.5f | %12.5f | %9.3f | %9.3f\n", tp,
                p.energy.mean(), p.active_energy.mean(), p.delay.mean(),
                p.delivery.mean());
    char label[32];
    std::snprintf(label, sizeof label, "%.2f", tp);
  }
  std::printf("expected: energy (tx+rx) falls from T_p=0 to the paper's "
              "T_p=1 s as ICMs get time to arrive; beyond that, little "
              "change but slower tree setup.\n");
  return 0;
}
