// Shared plumbing for the figure-reproduction harnesses.
//
// Every figure binary prints the same three panels the paper plots —
// average dissipated energy, average delay, distinct-event delivery ratio —
// for the opportunistic baseline and the greedy aggregation side by side,
// plus the tx/rx-only energy variant discussed in EXPERIMENTS.md.
//
// Scale knobs (paper: 10 fields per point, 400 s per run):
//   WSN_FIELDS=<n>    fields averaged per point   (default 5)
//   WSN_SIM_TIME=<s>  simulated seconds per run   (default 200)
//   WSN_JOBS=<n>      replicate threads started per sweep point
//                     (default: hardware concurrency; 1 runs them on
//                     the calling thread; results are bit-identical
//                     either way)
// Machine-readable output: set WSN_CSV=<dir> and each figure harness
// appends its series to <dir>/<figure>.csv for plotting (see plots/); the
// header is written only when the file is created, so multi-figure and
// re-runs into one dir compose. Performance is tracked by perfbench, not
// by these harnesses.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/parallel.hpp"
#include "scenario/sweep.hpp"

namespace wsn::bench {

namespace detail {
inline FILE*& csv_file() {
  static FILE* f = nullptr;
  return f;
}
}  // namespace detail

/// Formats one CSV numeric field; NaN (unknown, e.g. the SEM of a
/// single-field run) becomes the empty string instead of a fake 0.
inline std::string csv_field(double v, int precision = 6) {
  if (std::isnan(v)) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Opens <WSN_CSV>/<figure>.csv for append when the env var is set; no-op
/// otherwise. The header row is written only when the file is newly
/// created, so re-running a figure extends its series instead of silently
/// truncating it; open failures warn on stderr instead of being swallowed.
inline void open_csv(const char* figure) {
  const char* dir = std::getenv("WSN_CSV");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + figure + ".csv";
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for append: %s\n",
                 path.c_str(), std::strerror(errno));
    return;
  }
  detail::csv_file() = f;
  // Append-mode position before the first write is implementation-defined;
  // seek to the end to learn whether the file already has content.
  std::fseek(f, 0, SEEK_END);
  if (std::ftell(f) == 0) {
    std::fprintf(f,
                 "x,energy_opp,energy_greedy,active_opp,active_greedy,"
                 "delay_opp,delay_greedy,delivery_opp,delivery_greedy,"
                 "energy_opp_sem,energy_greedy_sem\n");
  }
}

inline void close_csv() {
  if (detail::csv_file() != nullptr) {
    std::fclose(detail::csv_file());
    detail::csv_file() = nullptr;
  }
}

struct SweepPoint {
  std::string label;
  scenario::AveragedPoint opportunistic;
  scenario::AveragedPoint greedy;
};

/// Runs both algorithms on `base` (its `algorithm` field is overwritten).
/// Replicates parallelise across WSN_JOBS workers; see run_replicates.
inline SweepPoint run_point(std::string label, scenario::ExperimentConfig base,
                            int fields, std::uint64_t seed0 = 1) {
  SweepPoint p;
  p.label = std::move(label);
  base.algorithm = core::Algorithm::kOpportunistic;
  p.opportunistic = scenario::run_replicates(base, fields, seed0);
  base.algorithm = core::Algorithm::kGreedy;
  p.greedy = scenario::run_replicates(base, fields, seed0);
  return p;
}

inline void print_figure_header(const char* figure, const char* description,
                                int fields, double sim_seconds,
                                const char* x_label) {
  std::printf("=== %s: %s ===\n", figure, description);
  std::printf("fields/point=%d  sim=%.0fs  jobs=%d  (paper: 10 fields, "
              "energy in J/node/received distinct event)\n",
              fields, sim_seconds, scenario::jobs_from_env());
  std::printf("%-10s | %-26s | %-26s | %-17s | %-15s\n", x_label,
              "energy total  opp / greedy", "energy tx+rx  opp / greedy",
              "delay[s] opp/grdy", "delivery opp/grdy");
}

inline void print_point(const SweepPoint& p) {
  const auto& o = p.opportunistic;
  const auto& g = p.greedy;
  const double ratio_total =
      o.energy.mean() > 0 ? g.energy.mean() / o.energy.mean() : 0.0;
  const double ratio_active =
      o.active_energy.mean() > 0
          ? g.active_energy.mean() / o.active_energy.mean()
          : 0.0;
  std::printf(
      "%-10s | %8.5f %8.5f  (%3.0f%%) | %8.5f %8.5f  (%3.0f%%) | "
      "%7.3f %7.3f   | %6.3f %6.3f\n",
      p.label.c_str(), o.energy.mean(), g.energy.mean(), ratio_total * 100.0,
      o.active_energy.mean(), g.active_energy.mean(), ratio_active * 100.0,
      o.delay.mean(), g.delay.mean(), o.delivery.mean(), g.delivery.mean());
  if (detail::csv_file() != nullptr) {
    std::fprintf(detail::csv_file(),
                 "%s,%.6f,%.6f,%.6f,%.6f,%.4f,%.4f,%.4f,%.4f,%s,%s\n",
                 p.label.c_str(), o.energy.mean(), g.energy.mean(),
                 o.active_energy.mean(), g.active_energy.mean(),
                 o.delay.mean(), g.delay.mean(), o.delivery.mean(),
                 g.delivery.mean(), csv_field(o.energy.sem()).c_str(),
                 csv_field(g.energy.sem()).c_str());
  }
}

inline void print_expectation(const char* text) {
  std::printf("paper-expected shape: %s\n", text);
}

/// The paper's seven density points: 50..350 nodes in steps of 50.
inline std::vector<std::size_t> density_sweep() {
  return {50, 100, 150, 200, 250, 300, 350};
}

}  // namespace wsn::bench
