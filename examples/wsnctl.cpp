// wsnctl — command-line front end for the experiment runner.
//
// Runs one experiment per invocation and prints the paper's metrics with
// the run's MAC and protocol counters (or one CSV row), exposing every knob
// the library offers:
//
//   $ ./wsnctl --nodes 250 --alg greedy --sources 8 --sinks 2
//               --duration 300 --seed 7 --placement corner --mac csma
//               --aggregation perfect --failures --csv
//
// Defaults reproduce one Figure-5 point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "agg/aggregation_fn.hpp"
#include "cli.hpp"
#include "scenario/experiment.hpp"

namespace {

void usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --nodes N          field size (default 150)\n"
      "  --alg A            opportunistic | greedy (default greedy)\n"
      "  --mac M            csma | tdma (default csma)\n"
      "  --sources N        number of sources (default 5)\n"
      "  --sinks N          number of sinks (default 1)\n"
      "  --placement P      corner | random (default corner)\n"
      "  --aggregation F    perfect | linear | packing | timestamp\n"
      "  --duration S       simulated seconds (default 200)\n"
      "  --seed N           RNG seed (default 1)\n"
      "  --failures         enable the 20%%/30 s failure process\n"
      "  --directional      corridor-based interest dissemination,\n"
      "                     task scoped to the source corner\n"
      "  --csv              emit one machine-readable CSV line\n"
      "  --tree             print the final aggregation tree edges\n",
      prog);
}

bool flag_eq(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 150;
  cfg.duration = sim::Time::seconds(200.0);
  bool csv = false;
  bool print_tree = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag_eq(a, "--help") || flag_eq(a, "-h")) {
      usage(argv[0]);
      return 0;
    } else if (flag_eq(a, "--nodes")) {
      cfg.field.nodes =
          static_cast<std::size_t>(cli::long_flag(a, next(), 1, cli::kMaxCount));
    } else if (flag_eq(a, "--alg")) {
      const std::string v = next();
      if (v == "opportunistic") {
        cfg.algorithm = core::Algorithm::kOpportunistic;
      } else if (v == "greedy") {
        cfg.algorithm = core::Algorithm::kGreedy;
      } else {
        std::fprintf(stderr, "unknown --alg %s\n", v.c_str());
        return 2;
      }
    } else if (flag_eq(a, "--mac")) {
      const std::string v = next();
      if (v == "csma") {
        cfg.mac_type = scenario::MacType::kCsma;
      } else if (v == "tdma") {
        cfg.mac_type = scenario::MacType::kTdma;
      } else {
        std::fprintf(stderr, "unknown --mac %s\n", v.c_str());
        return 2;
      }
    } else if (flag_eq(a, "--sources")) {
      cfg.num_sources =
          static_cast<std::size_t>(cli::long_flag(a, next(), 1, cli::kMaxCount));
    } else if (flag_eq(a, "--sinks")) {
      cfg.num_sinks =
          static_cast<std::size_t>(cli::long_flag(a, next(), 1, cli::kMaxCount));
    } else if (flag_eq(a, "--placement")) {
      const std::string v = next();
      if (v == "corner") {
        cfg.source_placement = scenario::SourcePlacement::kCorner;
      } else if (v == "random") {
        cfg.source_placement = scenario::SourcePlacement::kRandom;
      } else {
        std::fprintf(stderr, "unknown --placement %s\n", v.c_str());
        return 2;
      }
    } else if (flag_eq(a, "--aggregation")) {
      const std::string v = next();
      if (v == "perfect") {
        cfg.diffusion.aggregation = agg::kPerfect;
      } else if (v == "linear") {
        cfg.diffusion.aggregation = agg::kLinear;
      } else if (v == "packing") {
        cfg.diffusion.aggregation = agg::kPacking;
      } else if (v == "timestamp") {
        cfg.diffusion.aggregation = agg::kTimestamp;
      } else {
        std::fprintf(stderr, "unknown --aggregation %s\n", v.c_str());
        return 2;
      }
    } else if (flag_eq(a, "--duration")) {
      cfg.duration = sim::Time::seconds(cli::double_flag(a, next(), 1e-9, 1e9));
    } else if (flag_eq(a, "--seed")) {
      cfg.seed = cli::seed_flag(a, next());
    } else if (flag_eq(a, "--failures")) {
      cfg.failures.enabled = true;
    } else if (flag_eq(a, "--directional")) {
      cfg.diffusion.interest_propagation =
          diffusion::InterestPropagation::kDirectional;
      cfg.interest_region = cfg.source_rect;
    } else if (flag_eq(a, "--csv")) {
      csv = true;
    } else if (flag_eq(a, "--tree")) {
      print_tree = true;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", a);
      return 2;
    }
  }

  const auto res = cli::run_or_exit(cfg);
  const auto& m = res.metrics;
  if (csv) {
    std::printf("%zu,%s,%zu,%zu,%llu,%.6f,%.6f,%.4f,%.4f,%llu,%.3f\n",
                cfg.field.nodes, std::string(core::to_string(cfg.algorithm)).c_str(),
                cfg.num_sources, cfg.num_sinks,
                static_cast<unsigned long long>(cfg.seed),
                m.avg_dissipated_energy, m.avg_active_energy, m.avg_delay,
                m.delivery_ratio,
                static_cast<unsigned long long>(res.frames_sent),
                res.average_degree);
  } else {
    std::printf("nodes=%zu alg=%s sources=%zu sinks=%zu seed=%llu degree=%.1f\n",
                cfg.field.nodes, std::string(core::to_string(cfg.algorithm)).c_str(),
                cfg.num_sources, cfg.num_sinks,
                static_cast<unsigned long long>(cfg.seed), res.average_degree);
    std::printf("energy     : %.5f J/node/event (tx+rx: %.5f)\n",
                m.avg_dissipated_energy, m.avg_active_energy);
    std::printf("delay      : %.3f s\n", m.avg_delay);
    std::printf("delivery   : %.3f (%llu/%llu distinct)\n", m.delivery_ratio,
                static_cast<unsigned long long>(m.distinct_received),
                static_cast<unsigned long long>(m.distinct_generated));
    std::printf("frames     : %llu   hottest node: %.2f J\n",
                static_cast<unsigned long long>(res.frames_sent),
                res.energy_max_node_joules);
    std::printf("mac        : %llu arrivals corrupted, %llu drops\n",
                static_cast<unsigned long long>(res.arrivals_corrupted),
                static_cast<unsigned long long>(res.drops));
    const auto& p = res.protocol;
    std::printf("sent       : %llu interests, %llu exploratory, %llu data, "
                "%llu icm,\n"
                "             %llu reinforcements, %llu negatives, "
                "%llu repairs attempted\n",
                static_cast<unsigned long long>(p.interests_sent),
                static_cast<unsigned long long>(p.exploratory_sent),
                static_cast<unsigned long long>(p.data_sent),
                static_cast<unsigned long long>(p.icm_sent),
                static_cast<unsigned long long>(p.reinforcements_sent),
                static_cast<unsigned long long>(p.negatives_sent),
                static_cast<unsigned long long>(p.repairs_attempted));
    std::printf("items      : %llu dropped (no gradient), %llu aggregates "
                "received\n",
                static_cast<unsigned long long>(p.items_dropped_no_gradient),
                static_cast<unsigned long long>(p.aggregates_received));
    std::printf("tree       : %zu edges at end\n", res.tree_edges.size());
  }
  if (print_tree) {
    for (const auto& [from, to] : res.tree_edges) {
      std::printf("tree %u -> %u\n", from, to);
    }
  }
  return 0;
}
