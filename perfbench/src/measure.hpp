// Metric tables, percentile rule and result printing.
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Better { kLower, kHigher };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Better better;
};

/// Metrics of the untraced run (`--trace 0`), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of the traced run (`--trace 1`), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// The spec of `name` in either table; nullptr when it has none.
[[nodiscard]] const MetricSpec* find_metric(std::string_view name);
/// True iff `name` is non-empty and made of [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// A percentile reported only when at least ten samples lie beyond it.
struct Percentile {
  bool reported = false;
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
};

/// The q-quantile (0 < q < 1) of `samples` by nearest rank. Reported only
/// when at least ten samples rank above it, so p50 needs 20 samples and
/// p90 needs 100.
[[nodiscard]] Percentile tail_percentile(std::vector<double> samples,
                                         double q);

/// Median of a non-empty sample (mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> samples);

/// Host seconds on a monotonic clock.
[[nodiscard]] double host_seconds();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// One benchmark outcome: the result line's fields.
struct Outcome {
  std::size_t attempted = 0;
  /// Runs that failed the output check, re-ran with another digest, or
  /// whose traced rebuild diverged from run_experiment.
  std::size_t failed = 0;
  std::map<std::string, double> metrics;

  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Prints one "name value unit" line per metric, then the result line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// Every metric must have a spec (throws std::logic_error otherwise).
void print_outcome(std::FILE* out, const Outcome& outcome);

}  // namespace perfbench
