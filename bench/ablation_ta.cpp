// Ablation: the aggregation delay T_a (paper §4.2).
//
// T_a trades latency for aggregation opportunity: with T_a → 0 every item
// is forwarded as it arrives (no merging); the paper sets T_a to half the
// event period and T_n = 4·T_a.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Ablation: aggregation delay T_a (greedy, 250 nodes) ===\n");
  std::printf("fields/point=%d sim=%.0fs (T_n kept at 4*T_a per the paper)\n",
              fields, secs);
  std::printf("%-8s | %-12s | %-12s | %-9s | %-9s\n", "T_a [s]",
              "energy total", "energy tx+rx", "delay [s]", "delivery");
  for (double ta : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 250;
    cfg.duration = sim::Time::seconds(secs);
    cfg.algorithm = core::Algorithm::kGreedy;
    cfg.diffusion.t_a = sim::Time::seconds(ta);
    cfg.diffusion.t_n = sim::Time::seconds(4.0 * ta);
    const auto p = scenario::run_replicates(cfg, fields, 1);
    std::printf("%-8.2f | %12.5f | %12.5f | %9.3f | %9.3f\n", ta,
                p.energy.mean(), p.active_energy.mean(), p.delay.mean(),
                p.delivery.mean());
    char label[32];
    std::snprintf(label, sizeof label, "%.2f", ta);
  }
  std::printf("expected: larger T_a lowers tx+rx energy (bigger aggregates, "
              "fewer transmissions) and raises delay roughly linearly.\n");
  return 0;
}
