// The benchmark's workloads: named, seeded sets of experiment configs.
//
// A workload is a fixed list of `ExperimentConfig`s generated from the
// workload seed. The program under test receives only these configs; every
// run's seed is derived from the workload seed by `run_seed`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "scenario/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  /// Why the workload exists: which layers carry its load (one line, the
  /// same text as its BENCHMARK.json entry).
  std::string_view why;
  /// The runs of one iteration, in index order.
  std::vector<wsn::scenario::ExperimentConfig> configs;
  /// True: one iteration runs every config, dispatched through
  /// `scenario::for_each_index` on `jobs` workers (a sweep). False: one
  /// iteration is one run, cycling through `configs` in index order.
  bool batch = false;
  int jobs = 1;
  /// The set-up samples: configs shaped like `configs` (the first ones are
  /// the same runs) with no simulated time. setup_s is the median host time
  /// of run_experiment over them.
  std::vector<wsn::scenario::ExperimentConfig> setup_configs;
  /// Configs the traced run rebuilds step by step (indices into `configs`).
  std::vector<std::size_t> traced;
};

/// Seed of run `index` of a workload: SplitMix64 of
/// `workload_seed + (index + 1) * 0x9E3779B97F4A7C15` (mod 2^64). Distinct
/// indices give unrelated streams; the same workload seed gives the same
/// seeds on every host.
[[nodiscard]] std::uint64_t run_seed(std::uint64_t workload_seed,
                                     std::size_t index);

/// Worker count for batch workloads: min(4, hardware threads), at least 1.
[[nodiscard]] int bench_jobs();

/// Names of every workload. BENCHMARK.json lists all but field_10k, whose
/// timing is too noisy to guard (see README.md).
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// The workload called `name` for `workload_seed`; nullopt for an unknown
/// name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t workload_seed);

}  // namespace perfbench
