// Step-by-step rebuild of `scenario::run_experiment` with a tracer attached
// and a host-time span around each layer's calls.
//
// The rebuild makes the same public calls with the same Rng forks as
// run_experiment, so for the same config it must produce the same metric
// digest; `harness` checks that on every traced run. It covers the configs
// the workloads use: CSMA MACs, corner placement, one sink.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "scenario/experiment.hpp"

namespace perfbench {

/// Per-layer sums of one or more traced runs, keyed by metric name. Keys
/// starting with '_' are raw inputs of derived metrics, not printed.
using LayerSums = std::map<std::string, double>;

struct TracedRun {
  wsn::stats::RunMetrics metrics;
  std::uint64_t digest = 0;  ///< stats::digest_of(metrics)
  double wall_s = 0.0;       ///< host time of the whole rebuild
  LayerSums layers;
};

/// Builds, traces, runs and harvests one experiment step by step. Throws
/// std::invalid_argument for configs outside the covered shape.
[[nodiscard]] TracedRun run_traced_stack(
    const wsn::scenario::ExperimentConfig& config);

/// Adds every entry of `from` into `into`.
void accumulate(LayerSums& into, const LayerSums& from);

/// The per-layer metrics (every name in per_layer_metrics() except
/// scenario.parallel_efficiency and trace.overhead_ratio, which need the
/// untraced runs) from the sums of `runs` traced runs.
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const LayerSums& sums, std::size_t runs);

}  // namespace perfbench
