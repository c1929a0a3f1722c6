// The paper's evaluation sweeps (Figures 5-10, §5.1-§5.4) and the design
// ablations, as rows of one table run by one runner.
//
//   sweeps [NAME...]   runs the named sweeps in order; no NAME runs every
//                      sweep in table order. An unknown NAME lists the
//                      valid ones and exits 2.
//
// A *paired* sweep (the figures) runs both algorithms per point and prints
// the three panels the paper plots — average dissipated energy, average
// delay, distinct-event delivery ratio — for the opportunistic baseline and
// the greedy aggregation side by side, plus the tx/rx-only energy variant
// discussed in EXPERIMENTS.md. A *single* sweep (the ablations) runs each
// point's own algorithm.
//
// Scale knobs (paper: 10 fields per point, 400 s per run):
//   WSN_FIELDS=<n>    fields averaged per point   (default 5)
//   WSN_SIM_TIME=<s>  simulated seconds per run   (default 200)
//   WSN_JOBS=<n>      replicate threads started per sweep point
//                     (default: hardware concurrency; 1 runs them on
//                     the calling thread; results are bit-identical
//                     either way)
// Machine-readable output: set WSN_CSV=<dir> and each paired sweep appends
// its series to <dir>/<name>.csv for plotting (see plots/); the header is
// written only when the file is created, so multi-figure and re-runs into
// one dir compose. Single sweeps write no CSV. Performance is tracked by
// perfbench, not by these sweeps.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregation_fn.hpp"
#include "scenario/experiment.hpp"
#include "scenario/parallel.hpp"
#include "scenario/sweep.hpp"

namespace {

using namespace wsn;
using Config = scenario::ExperimentConfig;

struct Point {
  std::string label;
  Config config;
};

/// kPaired runs both algorithms per point and writes a CSV; kSingle runs
/// each point's own algorithm.
enum class Kind { kPaired, kSingle };

struct Sweep {
  const char* name;  ///< command-line name and CSV file stem
  const char* title;
  const char* description;
  const char* x_label;
  Kind kind;
  std::vector<Point> points;
  const char* expectation;
};

/// The paper's seven density points: 50..350 nodes in steps of 50.
constexpr std::size_t kDensity[] = {50, 100, 150, 200, 250, 300, 350};
/// The paper's source counts (§5.4), all inside the 80×80 m corner.
constexpr std::size_t kSources[] = {2, 5, 8, 11, 14};

std::string label_of(std::size_t x) { return std::to_string(x); }

std::string label_of(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", x);
  return buf;
}

std::string label_of(core::Algorithm a) {
  return std::string(core::to_string(a));
}

/// One point per x, labelled by x, on a default config edited by edit(c, x).
template <typename Xs, typename Edit>
std::vector<Point> over(const Xs& xs, Edit edit) {
  std::vector<Point> points;
  for (auto x : xs) {
    Point p{label_of(x), Config{}};
    edit(p.config, x);
    points.push_back(std::move(p));
  }
  return points;
}

/// One point per (x, named variant) pair, labelled "<x> <variant name>", on
/// a default config edited by edit(c, x, variant).
template <typename Xs, typename Variants, typename Edit>
std::vector<Point> cross(const Xs& xs, const Variants& variants, Edit edit) {
  std::vector<Point> points;
  for (auto x : xs) {
    for (const auto& [name, variant] : variants) {
      Point p{label_of(x) + " " + name, Config{}};
      edit(p.config, x, variant);
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::vector<Sweep> make_table(double secs) {
  using core::Algorithm;
  using diffusion::InterestPropagation;

  const std::pair<const char*, bool> truncations[] = {{"+trunc", true},
                                                      {"-trunc", false}};
  const std::pair<const char*, scenario::MacType> macs[] = {
      {"csma", scenario::MacType::kCsma}, {"tdma", scenario::MacType::kTdma}};
  const std::pair<const char*, InterestPropagation> propagations[] = {
      {"flood", InterestPropagation::kFlood},
      {"directional", InterestPropagation::kDirectional}};

  std::vector<Sweep> table;
  // Figure 5: greedy vs opportunistic aggregation as a function of network
  // density (50..350 nodes, 5 corner sources, 1 corner sink, perfect
  // aggregation, no failures).
  table.push_back(
      {"fig5_density", "Figure 5",
       "impact of network density (static network)", "nodes", Kind::kPaired,
       over(kDensity, [](Config& c, std::size_t n) { c.field.nodes = n; }),
       "(a) energy rises with density for both; greedy ≈ opportunistic at 50 "
       "nodes, down to ~55% of it at 300-350 (clearest in the tx+rx column); "
       "(b) delay comparable; (c) delivery ≈ 1 for both."});
  // Figure 6: impact of node failures — every 30 s, 20% of the nodes are
  // switched off (no settling time), across the density sweep.
  table.push_back(
      {"fig6_failures", "Figure 6",
       "impact of node failures (20% down, rotating every 30 s)", "nodes",
       Kind::kPaired,
       over(kDensity,
            [](Config& c, std::size_t n) {
              c.field.nodes = n;
              c.failures.enabled = true;
            }),
       "delivery drops for both; greedy suffers more at low density (single "
       "tree, no spare paths) and less at high density (smaller tree exposes "
       "fewer nodes to failure); opportunistic pays more energy per received "
       "event where its delivery is lower."});
  // Figure 7: sensitivity to source placement — the 5 sources are scattered
  // uniformly over the whole field instead of the 80×80 m corner.
  table.push_back(
      {"fig7_random_sources", "Figure 7",
       "random source placement (5 sources anywhere)", "nodes", Kind::kPaired,
       over(kDensity,
            [](Config& c, std::size_t n) {
              c.field.nodes = n;
              c.source_placement = scenario::SourcePlacement::kRandom;
            }),
       "greedy's savings shrink (paper: to ~30%) because scattered sources "
       "offer little early path sharing even on a greedy tree."});
  // Figure 8: sensitivity to the number of sinks (1..5) in the 350-node
  // field. The first sink sits in the top-right corner; the rest are
  // scattered uniformly.
  table.push_back(
      {"fig8_sinks", "Figure 8",
       "impact of the number of sinks (350 nodes, 5 corner sources)",
       "sinks", Kind::kPaired,
       over(std::initializer_list<std::size_t>{1, 2, 3, 4, 5},
            [](Config& c, std::size_t sinks) {
              c.field.nodes = 350;
              c.num_sinks = sinks;
            }),
       "with more (scattered) sinks the energy gap closes — like random "
       "source placement — but greedy keeps a delivery-ratio edge because "
       "early aggregation lowers overall traffic."});
  // Figure 9: sensitivity to the number of sources — {2,5,8,11,14} corner
  // sources in the 350-node field, perfect aggregation.
  table.push_back(
      {"fig9_sources", "Figure 9",
       "impact of the number of sources (350 nodes, perfect aggregation)",
       "sources", Kind::kPaired,
       over(kSources,
            [](Config& c, std::size_t sources) {
              c.field.nodes = 350;
              c.num_sources = sources;
            }),
       "with many sources packed into the fixed 80×80 m corner the workload "
       "approaches the event-radius regime: paths merge early even without "
       "optimisation, so greedy's edge converges toward the opportunistic "
       "baseline."});
  // Figure 10: the Figure-9 sweep under *linear* aggregation
  // (z(S) = d·28 B + 36 B — lossless packing, headers are the only saving).
  table.push_back(
      {"fig10_linear", "Figure 10",
       "linear aggregation z = 28d + 36 (350 nodes, corner sources)",
       "sources", Kind::kPaired,
       over(kSources,
            [](Config& c, std::size_t sources) {
              c.field.nodes = 350;
              c.num_sources = sources;
              c.diffusion.aggregation = agg::kLinear;
            }),
       "the inefficient aggregation function bites harder as sources grow: "
       "at 10+ sources greedy's savings are a few points lower than under "
       "perfect aggregation (paper: 36% vs 43% at 10 sources)."});
  // Ablation: the positive-reinforcement wait T_p (paper §4.1). T_p is what
  // gives the incremental-cost messages time to reveal a cheaper graft
  // point before the sink commits. With T_p = 0 the greedy instantiation
  // degenerates to a lowest-energy-path tree (each source gets its own
  // shortest path; no deliberate sharing).
  table.push_back(
      {"ablation_tp", "Ablation", "reinforcement wait T_p (greedy, 250 nodes)",
       "T_p [s]", Kind::kSingle,
       over(std::initializer_list<double>{0.0, 0.25, 0.5, 1.0, 2.0},
            [](Config& c, double tp) {
              c.field.nodes = 250;
              c.algorithm = Algorithm::kGreedy;
              c.diffusion.t_p = sim::Time::seconds(tp);
            }),
       "energy (tx+rx) falls from T_p=0 to the paper's T_p=1 s as ICMs get "
       "time to arrive; beyond that, little change but slower tree setup."});
  // Ablation: the aggregation delay T_a (paper §4.2). T_a trades latency
  // for aggregation opportunity: with T_a → 0 every item is forwarded as
  // it arrives (no merging); the paper sets T_a to half the event period
  // and T_n = 4·T_a.
  table.push_back(
      {"ablation_ta", "Ablation",
       "aggregation delay T_a (greedy, 250 nodes, T_n = 4*T_a)", "T_a [s]",
       Kind::kSingle,
       over(std::initializer_list<double>{0.05, 0.1, 0.25, 0.5, 1.0},
            [](Config& c, double ta) {
              c.field.nodes = 250;
              c.algorithm = Algorithm::kGreedy;
              c.diffusion.t_a = sim::Time::seconds(ta);
              c.diffusion.t_n = sim::Time::seconds(4.0 * ta);
            }),
       "larger T_a lowers tx+rx energy (bigger aggregates, fewer "
       "transmissions) and raises delay roughly linearly."});
  // Ablation: §4.3 path truncation (set-cover-driven negative
  // reinforcement). Without truncation, redundant paths built during
  // exploratory rounds are never pruned, so both instantiations carry
  // duplicate traffic.
  table.push_back(
      {"ablation_truncation", "Ablation",
       "path truncation on/off (250 nodes)", "variant", Kind::kSingle,
       cross(std::initializer_list<Algorithm>{Algorithm::kOpportunistic,
                                              Algorithm::kGreedy},
             truncations,
             [](Config& c, Algorithm alg, bool trunc) {
               c.field.nodes = 250;
               c.algorithm = alg;
               c.diffusion.enable_truncation = trunc;
             }),
       "disabling truncation raises tx+rx energy for both variants (stale "
       "duplicate paths keep transmitting)."});
  // Ablation: CSMA/CA (the paper's modified 802.11) vs TDMA (its §4.2
  // alternative) under the greedy aggregation, across density. TDMA trades
  // contention losses and idle listening for scheduling latency: a global
  // schedule is collision-free, but each node transmits at most once per
  // cycle, so delay grows with the cycle (≈ nodes × slot).
  table.push_back(
      {"ablation_mac", "Ablation", "CSMA/CA vs TDMA link layer (greedy)",
       "nodes mac", Kind::kSingle,
       cross(std::initializer_list<std::size_t>{50, 150, 250}, macs,
             [](Config& c, std::size_t n, scenario::MacType mac) {
               c.field.nodes = n;
               c.algorithm = Algorithm::kGreedy;
               c.mac_type = mac;
             }),
       "TDMA delivers without any collisions but pays cycle-bound latency "
       "that grows with node count; CSMA keeps delay flat and loses a "
       "little to contention."});
  // Ablation: §2's directional interest dissemination. The paper's
  // evaluation floods interests network-wide; §2 also sketches sending
  // interests "only to a subset of neighbors in the direction of the
  // specified region". With the task scoped to the source corner,
  // directional propagation confines the interest/exploratory overhead to
  // the sink-to-region corridor.
  table.push_back(
      {"ablation_directional", "Ablation",
       "interest dissemination, flood vs directional (greedy, task scoped to "
       "the 80x80 m corner)",
       "nodes mode", Kind::kSingle,
       cross(std::initializer_list<std::size_t>{100, 250, 350}, propagations,
             [](Config& c, std::size_t n, InterestPropagation mode) {
               c.field.nodes = n;
               c.algorithm = Algorithm::kGreedy;
               c.interest_region = c.source_rect;  // task scoped to the corner
               c.diffusion.interest_propagation = mode;
             }),
       "the corridor trims the interest-flood share of tx+rx energy "
       "(≈10-15% at 350 nodes), delivery intact — the optimisation §2 hints "
       "at. Exploratory events already follow gradients, so they stay "
       "inside the corridor too."});

  for (Sweep& s : table) {
    for (Point& p : s.points) p.config.duration = sim::Time::seconds(secs);
  }
  return table;
}

/// Formats one CSV numeric field; NaN (unknown, e.g. the SEM of a
/// single-field run) becomes the empty string instead of a fake 0.
std::string csv_field(double v) {
  if (std::isnan(v)) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// Opens <WSN_CSV>/<name>.csv for append when the env var is set, else
/// returns null. The header row is written only when the file is newly
/// created, so re-running a sweep extends its series instead of silently
/// truncating it; open failures warn on stderr instead of being swallowed.
FILE* open_csv(const char* name) {
  const char* dir = std::getenv("WSN_CSV");
  if (dir == nullptr) return nullptr;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for append: %s\n",
                 path.c_str(), std::strerror(errno));
    return nullptr;
  }
  // Append-mode position before the first write is implementation-defined;
  // seek to the end to learn whether the file already has content.
  std::fseek(f, 0, SEEK_END);
  if (std::ftell(f) == 0) {
    std::fprintf(f,
                 "x,energy_opp,energy_greedy,active_opp,active_greedy,"
                 "delay_opp,delay_greedy,delivery_opp,delivery_greedy,"
                 "energy_opp_sem,energy_greedy_sem\n");
  }
  return f;
}

void print_header(const Sweep& s, int fields, double secs) {
  std::printf("=== %s: %s ===\n", s.title, s.description);
  std::printf("fields/point=%d  sim=%.0fs  jobs=%d  (paper: 10 fields, "
              "energy in J/node/received distinct event)\n",
              fields, secs, scenario::jobs_from_env());
  if (s.kind == Kind::kPaired) {
    std::printf("%-10s | %-26s | %-26s | %-17s | %-15s\n", s.x_label,
                "energy total  opp / greedy", "energy tx+rx  opp / greedy",
                "delay[s] opp/grdy", "delivery opp/grdy");
  } else {
    std::printf("%-22s | %-12s | %-12s | %-9s | %-9s\n", s.x_label,
                "energy total", "energy tx+rx", "delay [s]", "delivery");
  }
}

/// Runs both algorithms on `p` (its `algorithm` field is overwritten) and
/// prints one row, plus one CSV row when `csv` is open.
void print_paired(const Point& p, int fields, FILE* csv) {
  Config cfg = p.config;
  cfg.algorithm = core::Algorithm::kOpportunistic;
  const scenario::AveragedPoint o = scenario::run_replicates(cfg, fields, 1);
  cfg.algorithm = core::Algorithm::kGreedy;
  const scenario::AveragedPoint g = scenario::run_replicates(cfg, fields, 1);
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
  if (csv != nullptr) {
    std::fprintf(csv, "%s,%.6f,%.6f,%.6f,%.6f,%.4f,%.4f,%.4f,%.4f,%s,%s\n",
                 p.label.c_str(), o.energy.mean(), g.energy.mean(),
                 o.active_energy.mean(), g.active_energy.mean(),
                 o.delay.mean(), g.delay.mean(), o.delivery.mean(),
                 g.delivery.mean(), csv_field(o.energy.sem()).c_str(),
                 csv_field(g.energy.sem()).c_str());
  }
}

/// Runs the config's own algorithm on `p` and prints one row.
void print_single(const Point& p, int fields) {
  const scenario::AveragedPoint r =
      scenario::run_replicates(p.config, fields, 1);
  std::printf("%-22s | %12.5f | %12.5f | %9.3f | %9.3f\n", p.label.c_str(),
              r.energy.mean(), r.active_energy.mean(), r.delay.mean(),
              r.delivery.mean());
}

void run(const Sweep& s, int fields, double secs) {
  const bool paired = s.kind == Kind::kPaired;
  FILE* csv = paired ? open_csv(s.name) : nullptr;
  print_header(s, fields, secs);
  for (const Point& p : s.points) {
    if (paired) {
      print_paired(p, fields, csv);
    } else {
      print_single(p, fields);
    }
  }
  std::printf("%s: %s\n", paired ? "paper-expected shape" : "expected",
              s.expectation);
  if (csv != nullptr) std::fclose(csv);
}

}  // namespace

int main(int argc, char** argv) {
  const int fields = scenario::fields_from_env();
  const double secs = scenario::sim_seconds_from_env(200.0);
  const std::vector<Sweep> table = make_table(secs);

  std::vector<const Sweep*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Sweep* found = nullptr;
    for (const Sweep& s : table) {
      if (std::strcmp(s.name, argv[i]) == 0) found = &s;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "sweeps: unknown sweep '%s'; usage: sweeps "
                           "[NAME...] with NAME one of:\n", argv[i]);
      for (const Sweep& s : table) std::fprintf(stderr, "  %s\n", s.name);
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Sweep& s : table) chosen.push_back(&s);
  }
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) std::printf("\n");
    run(*chosen[i], fields, secs);
  }
  return 0;
}
