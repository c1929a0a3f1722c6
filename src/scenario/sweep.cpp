#include "scenario/sweep.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "scenario/parallel.hpp"
#include "stats/digest.hpp"

namespace wsn::scenario {
namespace {

void warn_ignored(const char* name, const char* value, const char* reason) {
  std::fprintf(stderr, "[wsn] ignoring %s=\"%s\" (%s); using the default\n",
               name, value, reason);
}

}  // namespace

std::optional<long> parse_long(const char* s, long lo, long hi,
                               const char** reason) {
  const char* why = nullptr;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    why = "not an integer";
  } else if (errno == ERANGE) {
    why = "overflows long";
  } else if (v < lo || v > hi) {
    why = "out of range";
  } else {
    return v;
  }
  if (reason != nullptr) *reason = why;
  return std::nullopt;
}

std::optional<double> parse_double(const char* s, double lo, double hi,
                                   const char** reason) {
  const char* why = nullptr;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    why = "not a number";
  } else if (errno == ERANGE || !std::isfinite(v)) {
    why = "not a finite value";
  } else if (v < lo || v > hi) {
    why = "out of range";
  } else {
    return v;
  }
  if (reason != nullptr) *reason = why;
  return std::nullopt;
}

long env_long(const char* name, long fallback, long lo, long hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  const char* reason = nullptr;
  if (const auto v = parse_long(s, lo, hi, &reason)) return *v;
  warn_ignored(name, s, reason);
  return fallback;
}

double env_double(const char* name, double fallback, double lo, double hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  const char* reason = nullptr;
  if (const auto v = parse_double(s, lo, hi, &reason)) return *v;
  warn_ignored(name, s, reason);
  return fallback;
}

AveragedPoint run_replicates(const ExperimentConfig& base, int replicates,
                             std::uint64_t seed0, int jobs) {
  AveragedPoint point;
  if (replicates <= 0) return point;

  const auto count = static_cast<std::size_t>(replicates);
  // Every replicate writes its own seed-indexed slot and the merge walks
  // the slots in seed order, so the accumulators see the same value stream
  // whatever the job count (for_each_index runs in order on one thread
  // when jobs resolve to 1).
  std::vector<RunResult> slots(count);
  for_each_index(
      count,
      [&](std::size_t r) {
        ExperimentConfig cfg = base;
        cfg.seed = seed0 + r;
        slots[r] = run_experiment(cfg);
      },
      jobs);
  for (const RunResult& res : slots) {
    point.energy.add(res.metrics.avg_dissipated_energy);
    point.active_energy.add(res.metrics.avg_active_energy);
    point.delay.add(res.metrics.avg_delay);
    point.delivery.add(res.metrics.delivery_ratio);
    point.degree.add(res.average_degree);
    point.max_node_energy.add(res.energy_max_node_joules);
    point.mean_node_energy.add(res.energy_mean_node_joules);
    point.stddev_node_energy.add(res.energy_stddev_node_joules);
    ++point.replicates;
  }
  return point;
}

std::uint64_t digest_of(const AveragedPoint& point) {
  stats::Digest d;
  for (const stats::Accumulator* a :
       {&point.energy, &point.active_energy, &point.delay, &point.delivery,
        &point.degree, &point.max_node_energy, &point.mean_node_energy,
        &point.stddev_node_energy}) {
    d.add(a->count());
    d.add(a->mean());
    d.add(a->variance());
    d.add(a->min());
    d.add(a->max());
  }
  d.add(static_cast<std::int64_t>(point.replicates));
  return d.value();
}

int fields_from_env(int fallback) {
  return static_cast<int>(env_long("WSN_FIELDS", fallback, 1, 1000000));
}

double sim_seconds_from_env(double fallback) {
  return env_double("WSN_SIM_TIME", fallback, 1e-9, 1e9);
}

}  // namespace wsn::scenario
