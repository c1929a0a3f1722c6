// Traffic concentration and network lifetime (paper §3).
//
// The paper warns that aggregated data paths "introduce traffic
// concentration ... which adversely impacts network lifetime" when the
// aggregation does not reduce total data size — and argues that with a
// reasonable reduction the longer-but-shared paths *extend* lifetime
// because the scarce resource is total energy. This harness measures both
// sides: the hottest node's energy (lifetime proxy) and the per-node
// spread, under perfect and under linear aggregation.
#include <cstdio>
#include <string>
#include <vector>

#include "agg/aggregation_fn.hpp"
#include "scenario/experiment.hpp"
#include "scenario/parallel.hpp"
#include "scenario/sweep.hpp"
#include "stats/accumulator.hpp"

namespace {

struct HotspotRow {
  wsn::stats::Accumulator max_node;
  wsn::stats::Accumulator mean_node;
  wsn::stats::Accumulator stddev_node;
  wsn::stats::Accumulator delivery;
  wsn::stats::Accumulator lifetime_days;
};

HotspotRow measure(wsn::core::Algorithm alg, bool linear, int fields,
                   double secs) {
  using namespace wsn;
  // Fields run in parallel (WSN_JOBS) into seed-indexed slots and are
  // merged in seed order, like run_replicates.
  std::vector<scenario::RunResult> slots(static_cast<std::size_t>(fields));
  scenario::for_each_index(slots.size(), [&](std::size_t f) {
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = 250;
    cfg.algorithm = alg;
    cfg.num_sources = 8;
    cfg.duration = sim::Time::seconds(secs);
    cfg.seed = 1 + static_cast<std::uint64_t>(f);
    if (linear) {
      cfg.diffusion.aggregation = agg::kLinear;
    }
    slots[f] = scenario::run_experiment(cfg);
  });
  HotspotRow row;
  for (const auto& res : slots) {
    row.max_node.add(res.energy_max_node_joules);
    row.mean_node.add(res.energy_mean_node_joules);
    row.stddev_node.add(res.energy_stddev_node_joules);
    row.delivery.add(res.metrics.delivery_ratio);
    // Lifetime proxy: two AA cells ≈ 18.7 kJ.
    row.lifetime_days.add(res.first_death_seconds(18700.0, secs) / 86400.0);
  }
  return row;
}

}  // namespace

int main() {
  using namespace wsn;
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);

  std::printf("=== Traffic concentration & lifetime (250 nodes, 8 corner "
              "sources) ===\n");
  std::printf("fields/point=%d sim=%.0fs; lifetime = 18.7 kJ battery / "
              "hottest-node power\n",
              fields, secs);
  std::printf("%-24s | %-10s | %-10s | %-10s | %-9s | %-12s\n", "variant",
              "max J/node", "mean J/node", "stddev", "delivery",
              "lifetime[d]");
  for (bool linear : {false, true}) {
    for (auto alg :
         {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
      const auto row = measure(alg, linear, fields, secs);
      char label[64];
      std::snprintf(label, sizeof label, "%s/%s",
                    std::string(core::to_string(alg)).c_str(),
                    linear ? "linear" : "perfect");
      std::printf("%-24s | %10.3f | %10.3f | %10.3f | %9.3f | %12.1f\n",
                  label, row.max_node.mean(), row.mean_node.mean(),
                  row.stddev_node.mean(), row.delivery.mean(),
                  row.lifetime_days.mean());
    }
  }
  std::printf("expected: greedy's trunk is busy, but the baseline's "
              "duplicated corner paths are the worse hotspot — greedy ends "
              "up with lower mean, lower spread and a cooler hottest node, "
              "so the first-death lifetime improves (paper §3's favourable "
              "regime); linear aggregation narrows the gap.\n");
  return 0;
}
