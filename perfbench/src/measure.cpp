#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"sim_s_per_wall_s", "sim-s/s", Better::kHigher},
      {"wall_s", "s", Better::kLower},
      {"setup_s", "s", Better::kLower},
      {"peak_rss_mib", "MiB", Better::kLower},
      {"delivery_ratio", "ratio", Better::kHigher},
      {"energy_j_per_event", "J/node/event", Better::kLower},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"sim.run_s", "s", Better::kLower},
      {"sim.events_dispatched", "count", Better::kLower},
      {"sim.host_ns_per_event", "ns", Better::kLower},
      {"sim.events_per_sim_s", "1/sim-s", Better::kLower},
      {"sim.pool_acquires", "count", Better::kLower},
      {"sim.pool_slots_created", "count", Better::kLower},
      {"sim.pool_bytes_reserved", "bytes", Better::kLower},
      {"sim.pool_slots_live", "count", Better::kLower},
      {"net.field_gen_s", "s", Better::kLower},
      {"net.topology_build_s", "s", Better::kLower},
      {"net.avg_degree", "count", Better::kLower},
      {"net.audible_entries", "count", Better::kLower},
      {"mac.construct_s", "s", Better::kLower},
      {"mac.frames_sent", "count", Better::kLower},
      {"mac.acks_sent", "count", Better::kLower},
      {"mac.retries", "count", Better::kLower},
      {"mac.arrivals_corrupted", "count", Better::kLower},
      {"mac.drops", "count", Better::kLower},
      {"mac.backoffs", "count", Better::kLower},
      {"mac.collisions", "count", Better::kLower},
      {"channel.sweeps", "count", Better::kLower},
      {"mac.retry_ratio", "ratio", Better::kLower},
      {"mac.clean_rx_ratio", "ratio", Better::kHigher},
      {"diffusion.construct_s", "s", Better::kLower},
      {"diffusion.interests_sent", "count", Better::kLower},
      {"diffusion.exploratory_sent", "count", Better::kLower},
      {"diffusion.data_sent", "count", Better::kLower},
      {"diffusion.reinforcements_sent", "count", Better::kLower},
      {"diffusion.negatives_sent", "count", Better::kLower},
      {"diffusion.repairs_attempted", "count", Better::kLower},
      {"diffusion.items_dropped_no_gradient", "count", Better::kLower},
      {"diffusion.aggregates_received", "count", Better::kHigher},
      {"diffusion.cache_hits", "count", Better::kLower},
      {"diffusion.cache_purges", "count", Better::kLower},
      {"diffusion.dup_ratio", "ratio", Better::kLower},
      {"core.icm_sent", "count", Better::kLower},
      {"core.icm_recv", "count", Better::kLower},
      {"trees.placement_s", "s", Better::kLower},
      {"scenario.start_s", "s", Better::kLower},
      {"scenario.harvest_s", "s", Better::kLower},
      {"scenario.failure_rotations", "count", Better::kLower},
      {"scenario.node_downs", "count", Better::kLower},
      {"scenario.parallel_efficiency", "ratio", Better::kHigher},
      {"trace.records", "count", Better::kLower},
      {"trace.overhead_ratio", "ratio", Better::kLower},
  };
  return specs;
}

const MetricSpec* find_metric(std::string_view name) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *table) {
      if (spec.name == name) return &spec;
    }
  }
  return nullptr;
}

bool valid_metric_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

Percentile tail_percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  // Nearest rank: the ceil(q*n)-th smallest value (1-based).
  const auto n = samples.size();
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.reported = n - rank >= 10;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::logic_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double host_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_outcome(std::FILE* out, const Outcome& outcome) {
  for (const auto& [name, value] : outcome.metrics) {
    const MetricSpec* spec = find_metric(name);
    if (spec == nullptr || !valid_metric_name(name)) {
      throw std::logic_error("metric without a spec: " + name);
    }
    std::fprintf(out, "%-36s %.6g %.*s\n", name.c_str(), value,
                 static_cast<int>(spec->unit.size()), spec->unit.data());
  }
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
               "\"metrics\": {",
               outcome.correct() ? "true" : "false", outcome.attempted,
               outcome.failed);
  const char* sep = "";
  for (const auto& [name, value] : outcome.metrics) {
    const MetricSpec* spec = find_metric(name);
    // JSON has no NaN/inf; a non-finite value prints as null.
    if (std::isfinite(value)) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%.*s\"}",
                   sep, name.c_str(), value,
                   static_cast<int>(spec->unit.size()), spec->unit.data());
    } else {
      std::fprintf(out, "%s\"%s\": {\"value\": null, \"unit\": \"%.*s\"}", sep,
                   name.c_str(), static_cast<int>(spec->unit.size()),
                   spec->unit.data());
    }
    sep = ", ";
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

}  // namespace perfbench
