// The two benchmark modes: untraced end-to-end timing and the traced
// per-layer run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "scenario/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Why a run counts as failed, or "" when it passed the output check:
/// an empty RunResult, a non-finite metric, delivery_ratio outside [0, 1],
/// or no event received.
[[nodiscard]] std::string check_run(const wsn::scenario::RunResult& result);

/// One dispatch of some of a workload's configs.
struct Batch {
  std::vector<std::size_t> indices;
  std::vector<double> run_s;               ///< host time of each run
  std::vector<std::uint64_t> digests;      ///< stats::digest_of per run
  std::vector<wsn::stats::RunMetrics> metrics;
  std::vector<std::string> failures;       ///< check_run result, or the throw
  double wall_s = 0.0;
  unsigned workers = 1;

  [[nodiscard]] std::size_t failed() const;
};

/// Runs `indices` of `workload` through scenario::run_experiment,
/// dispatched by scenario::for_each_index on `jobs` workers.
[[nodiscard]] Batch run_batch(const Workload& workload,
                              const std::vector<std::size_t>& indices,
                              int jobs);

/// End-to-end metrics, tracing off: a closed loop of iterations for at least
/// `seconds` host seconds that runs every config and then config 0 again,
/// with the set-up samples taken between iterations.
[[nodiscard]] Outcome run_untraced(const Workload& workload, double seconds);

/// Per-layer metrics: the traced configs run untraced and through the
/// traced stack; their digests must match.
[[nodiscard]] Outcome run_traced(const Workload& workload);

}  // namespace perfbench
