// Ablation: §4.3 path truncation (set-cover-driven negative reinforcement).
//
// Without truncation, redundant paths built during exploratory rounds are
// never pruned, so both instantiations carry duplicate traffic.
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Ablation: path truncation on/off (250 nodes) ===\n");
  std::printf("fields/point=%d sim=%.0fs\n", fields, secs);
  std::printf("%-22s | %-12s | %-12s | %-9s | %-9s\n", "variant",
              "energy total", "energy tx+rx", "delay [s]", "delivery");
  for (auto alg : {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    for (bool trunc : {true, false}) {
      scenario::ExperimentConfig cfg;
      cfg.field.nodes = 250;
      cfg.duration = sim::Time::seconds(secs);
      cfg.algorithm = alg;
      cfg.diffusion.enable_truncation = trunc;
      const auto p = scenario::run_replicates(cfg, fields, 1);
      char label[64];
      std::snprintf(label, sizeof label, "%s %s",
                    std::string(core::to_string(alg)).c_str(),
                    trunc ? "+trunc" : "-trunc");
      std::printf("%-22s | %12.5f | %12.5f | %9.3f | %9.3f\n", label,
                  p.energy.mean(), p.active_energy.mean(), p.delay.mean(),
                  p.delivery.mean());
    }
  }
  std::printf("expected: disabling truncation raises tx+rx energy for both "
              "variants (stale duplicate paths keep transmitting).\n");
  return 0;
}
