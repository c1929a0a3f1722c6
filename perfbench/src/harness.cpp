#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "scenario/parallel.hpp"
#include "stats/digest.hpp"
#include "traced_stack.hpp"

namespace perfbench {
namespace {

using wsn::scenario::ExperimentConfig;
using wsn::scenario::RunResult;

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<std::size_t> all_indices(const Workload& w) {
  std::vector<std::size_t> idx(w.configs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

// Host time of run_experiment on a set-up config (no simulated time).
double setup_sample(const ExperimentConfig& cfg) {
  const double t0 = host_seconds();
  const RunResult r = wsn::scenario::run_experiment(cfg);
  const double t = host_seconds() - t0;
  if (r.node_positions.size() != cfg.field.nodes) {
    throw std::runtime_error("set-up run built no field");
  }
  return t;
}

void report_failures(const Workload& w, const Batch& b) {
  for (std::size_t k = 0; k < b.indices.size(); ++k) {
    if (!b.failures[k].empty()) {
      std::fprintf(stderr, "%.*s run %zu (seed %llu) failed: %s\n",
                   static_cast<int>(w.name.size()), w.name.data(),
                   b.indices[k],
                   static_cast<unsigned long long>(
                       w.configs[b.indices[k]].seed),
                   b.failures[k].c_str());
    }
  }
}

}  // namespace

std::string check_run(const RunResult& r) {
  if (r.sinks.empty() || r.node_positions.empty()) return "empty RunResult";
  const auto& m = r.metrics;
  for (double v : {m.avg_dissipated_energy, m.avg_active_energy, m.avg_delay,
                   m.delivery_ratio, m.total_energy_joules,
                   m.total_active_energy_joules}) {
    if (!std::isfinite(v)) return "non-finite metric";
  }
  if (m.delivery_ratio < 0.0 || m.delivery_ratio > 1.0) {
    return "delivery_ratio outside [0, 1]";
  }
  if (m.distinct_received == 0) return "no event received";
  return "";
}

std::size_t Batch::failed() const {
  std::size_t n = 0;
  for (const auto& f : failures) n += f.empty() ? 0 : 1;
  return n;
}

Batch run_batch(const Workload& workload,
                const std::vector<std::size_t>& indices, int jobs) {
  Batch b;
  const std::size_t n = indices.size();
  b.indices = indices;
  b.run_s.assign(n, 0.0);
  b.digests.assign(n, 0);
  b.metrics.assign(n, {});
  b.failures.assign(n, "");
  b.workers = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs, n)));
  const double t0 = host_seconds();
  wsn::scenario::for_each_index(
      n,
      [&](std::size_t k) {
        const double start = host_seconds();
        try {
          const RunResult r =
              wsn::scenario::run_experiment(workload.configs[indices[k]]);
          b.failures[k] = check_run(r);
          b.metrics[k] = r.metrics;
          b.digests[k] = wsn::stats::digest_of(r.metrics);
        } catch (const std::exception& e) {
          b.failures[k] = std::string{"threw: "} + e.what();
        }
        b.run_s[k] = host_seconds() - start;
      },
      jobs);
  b.wall_s = host_seconds() - t0;
  report_failures(workload, b);
  return b;
}

Outcome run_untraced(const Workload& w, double seconds) {
  Outcome out;
  const std::size_t k_configs = w.configs.size();
  std::vector<std::uint64_t> first_digest(k_configs, 0);
  std::vector<bool> seen(k_configs, false);
  std::vector<wsn::stats::RunMetrics> first_metrics(k_configs);
  std::vector<double> iter_wall;       // host s per iteration
  std::vector<double> iter_sim_rate;   // simulated s per host s
  std::vector<double> run_s;           // host s per run_experiment call
  std::vector<double> setup_s;         // host s per set-up sample

  // Compares every run against the first run of its config.
  const auto record = [&](const Batch& b) {
    out.attempted += b.indices.size();
    out.failed += b.failed();
    for (std::size_t k = 0; k < b.indices.size(); ++k) {
      const std::size_t idx = b.indices[k];
      if (!b.failures[k].empty()) continue;
      if (!seen[idx]) {
        seen[idx] = true;
        first_digest[idx] = b.digests[k];
        first_metrics[idx] = b.metrics[k];
      } else if (b.digests[k] != first_digest[idx]) {
        ++out.failed;
        std::fprintf(stderr, "run %zu re-ran with a different digest\n", idx);
      }
    }
  };

  // Closed loop: each iteration starts when the previous one returns. The
  // minimum covers every config and then re-runs the first one, so each
  // run's determinism is checked at least once.
  // Set-up samples are spread over the loop in proportion to elapsed time,
  // so their median sees the same drift in host speed as the iterations.
  const double start = host_seconds();
  const std::size_t setups = w.setup_configs.size();
  const auto take_setups = [&](double elapsed) {
    const double share = seconds > 0.0 ? std::min(1.0, elapsed / seconds) : 1.0;
    const auto due = static_cast<std::size_t>(
        std::ceil(share * static_cast<double>(setups)));
    while (setup_s.size() < due) {
      setup_s.push_back(setup_sample(w.setup_configs[setup_s.size()]));
    }
  };
  std::size_t iterations = 0;
  while (iterations < (w.batch ? 2 : k_configs + 1) ||
         host_seconds() - start < seconds) {
    take_setups(host_seconds() - start);
    const Batch b =
        w.batch ? run_batch(w, all_indices(w), w.jobs)
                : run_batch(w, {iterations % k_configs}, 1);
    record(b);
    double sim_s = 0.0;
    for (std::size_t idx : b.indices) {
      sim_s += w.configs[idx].duration.as_seconds();
    }
    iter_wall.push_back(b.wall_s);
    iter_sim_rate.push_back(sim_s / b.wall_s);
    run_s.insert(run_s.end(), b.run_s.begin(), b.run_s.end());
    ++iterations;
  }
  take_setups(seconds);

  // Paper metrics: means over the configs in index order, so they are a
  // function of the workload seed alone.
  double delivery = 0.0;
  double energy = 0.0;
  double delay = 0.0;
  for (const auto& m : first_metrics) {
    delivery += m.delivery_ratio;
    energy += m.avg_dissipated_energy;
    delay += m.avg_delay;
  }
  const auto k = static_cast<double>(k_configs);
  // The fastest iteration, not the median: this host's speed drifts by up to
  // 1.6x in phases lasting tens of seconds, which moves a median over a 10 s
  // loop by about 20 % between runs. A slowdown cannot make an iteration
  // faster, so the minimum tracks the program's own cost.
  out.metrics["sim_s_per_wall_s"] =
      *std::max_element(iter_sim_rate.begin(), iter_sim_rate.end());
  out.metrics["wall_s"] = *std::min_element(iter_wall.begin(), iter_wall.end());
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["peak_rss_mib"] = peak_rss_mib();
  out.metrics["delivery_ratio"] = delivery / k;
  out.metrics["energy_j_per_event"] = energy / k;

  std::printf("workload %.*s: %zu iterations, %zu runs attempted, %zu failed"
              " (failed_runs_ratio %.6g)\n",
              static_cast<int>(w.name.size()), w.name.data(), iterations,
              out.attempted, out.failed,
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted));
  for (const double q : {0.5, 0.9}) {
    const Percentile p = tail_percentile(run_s, q);
    if (p.reported) {
      std::printf("run_wall_p%.0f_s %.6g s (n=%zu)\n", q * 100, p.value,
                  p.samples);
    } else {
      std::printf("run_wall_p%.0f_s not reported (n=%zu, needs 10 beyond)\n",
                  q * 100, p.samples);
    }
  }
  // Printed, not a result metric: per-field mean delay is heavy-tailed, so
  // its spread across workload seeds is wider than any allowed bound.
  std::printf("delay_s %.17g s (mean over %zu configs)\n", delay / k,
              k_configs);
  // stats::digest_of of each config's run, folded in index order.
  std::uint64_t digest = 0;
  for (std::uint64_t d : first_digest) digest = digest * 31 + d;
  std::printf("metric digest %016llx\n",
              static_cast<unsigned long long>(digest));
  return out;
}

Outcome run_traced(const Workload& w) {
  Outcome out;
  const auto count = [&out](const Batch& b) {
    out.attempted += b.indices.size();
    out.failed += b.failed();
  };
  // A batch workload's own dispatch, for its parallel efficiency; a
  // single-run workload's dispatch is its first untraced reference run.
  std::optional<Batch> dispatch;
  if (w.batch) {
    dispatch = run_batch(w, all_indices(w), w.jobs);
    count(*dispatch);
  }

  LayerSums sums;
  bool digests_match = true;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  for (std::size_t idx : w.traced) {
    // The untraced reference runs right before its traced rebuild, so
    // drift in host speed affects both alike.
    const Batch ref = run_batch(w, {idx}, 1);
    count(ref);
    if (!dispatch) dispatch = ref;
    const TracedRun t = run_traced_stack(w.configs[idx]);
    ++out.attempted;
    untraced_wall += ref.run_s[0];
    traced_wall += t.wall_s;
    accumulate(sums, t.layers);
    if (t.digest != ref.digests[0]) {
      ++out.failed;
      digests_match = false;
      std::fprintf(stderr,
                   "traced stack diverged from run_experiment on run %zu: "
                   "%016llx vs %016llx\n",
                   idx, static_cast<unsigned long long>(t.digest),
                   static_cast<unsigned long long>(ref.digests[0]));
    }
  }
  out.metrics = layer_metrics(sums, w.traced.size());
  out.metrics["scenario.parallel_efficiency"] =
      sum(dispatch->run_s) / (dispatch->wall_s * dispatch->workers);
  out.metrics["trace.overhead_ratio"] = traced_wall / untraced_wall;
  std::printf("workload %.*s traced: %zu traced runs, digests %s\n",
              static_cast<int>(w.name.size()), w.name.data(), w.traced.size(),
              digests_match ? "match run_experiment" : "DIFFER");
  return out;
}

}  // namespace perfbench
