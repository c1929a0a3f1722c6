// Ablation: CSMA/CA (the paper's modified 802.11) vs TDMA (its §4.2
// alternative) under the greedy aggregation, across density.
//
// TDMA trades contention losses and idle listening for scheduling latency:
// a global schedule is collision-free, but each node transmits at most once
// per cycle, so delay grows with the cycle (≈ nodes × slot).
#include "bench_common.hpp"

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Ablation: CSMA/CA vs TDMA link layer (greedy) ===\n");
  std::printf("fields/point=%d sim=%.0fs\n", fields, secs);
  std::printf("%-8s %-6s | %-12s | %-12s | %-9s | %-9s\n", "nodes", "mac",
              "energy total", "energy tx+rx", "delay [s]", "delivery");
  for (std::size_t nodes : {50u, 150u, 250u}) {
    for (auto mac_type : {scenario::MacType::kCsma, scenario::MacType::kTdma}) {
      scenario::ExperimentConfig cfg;
      cfg.field.nodes = nodes;
      cfg.algorithm = core::Algorithm::kGreedy;
      cfg.mac_type = mac_type;
      cfg.duration = sim::Time::seconds(secs);
      const auto p = scenario::run_replicates(cfg, fields, 1);
      const char* mac = mac_type == scenario::MacType::kCsma ? "csma" : "tdma";
      std::printf("%-8zu %-6s | %12.5f | %12.5f | %9.3f | %9.3f\n", nodes,
                  mac, p.energy.mean(), p.active_energy.mean(),
                  p.delay.mean(), p.delivery.mean());
    }
  }
  std::printf("expected: TDMA delivers without any collisions but pays "
              "cycle-bound latency that grows with node count; CSMA keeps "
              "delay flat and loses a little to contention.\n");
  return 0;
}
