// Abstract (graph-level) comparison of the greedy incremental tree vs the
// shortest-path tree, reproducing the Krishnamachari-et-al. observation the
// paper cites in §1/§6: under the event-radius and random-sources models the
// GIT's transmission savings over the SPT do not exceed ~20% — while the
// paper's own *corner* placement yields much larger savings, which is why
// the packet-level results in Figure 5 can beat that bound.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/parallel.hpp"
#include "scenario/sweep.hpp"
#include "sim/random.hpp"
#include "stats/accumulator.hpp"
#include "trees/aggregation_trees.hpp"
#include "trees/models.hpp"

namespace {

using namespace wsn;

struct ModelResult {
  stats::Accumulator savings;  ///< 1 - GIT/SPT, in percent
  stats::Accumulator git_over_opt;
};

struct TrialResult {
  double savings = std::numeric_limits<double>::quiet_NaN();
  double git_over_opt = std::numeric_limits<double>::quiet_NaN();
};

template <typename MakeInstance>
ModelResult evaluate(std::size_t nodes, int trials, MakeInstance make,
                     bool with_optimum) {
  // Each trial forks its own stream off the base seed, so trials are
  // independent and can run on the WSN_JOBS workers; merging the
  // trial-indexed slots in order keeps the result job-count-invariant.
  std::vector<TrialResult> slots(static_cast<std::size_t>(trials));
  scenario::for_each_index(slots.size(), [&](std::size_t t) {
    sim::Rng rng = sim::Rng{77}.fork(t);
    net::FieldSpec spec;
    spec.nodes = nodes;
    const net::Topology topo =
        net::generate_connected_topology(spec, rng).topology;
    const trees::Graph g = trees::graph_from_topology(topo);
    const trees::AbstractInstance inst = make(topo, rng);
    if (inst.sources.empty()) return;
    const auto spt = trees::shortest_path_tree(g, inst.sink, inst.sources);
    const auto git =
        trees::greedy_incremental_tree(g, inst.sink, inst.sources);
    if (!spt.feasible || !git.feasible || spt.total_weight == 0) return;
    slots[t].savings = (1.0 - git.total_weight / spt.total_weight) * 100.0;
    if (with_optimum && inst.sources.size() <= 6) {
      const auto opt = trees::steiner_tree_exact(g, inst.sink, inst.sources);
      if (opt.feasible && opt.total_weight > 0) {
        slots[t].git_over_opt = git.total_weight / opt.total_weight;
      }
    }
  });
  ModelResult res;
  for (const TrialResult& t : slots) {
    if (!std::isnan(t.savings)) res.savings.add(t.savings);
    if (!std::isnan(t.git_over_opt)) res.git_over_opt.add(t.git_over_opt);
  }
  return res;
}

}  // namespace

int main() {
  const int trials = scenario::fields_from_env(20);
  std::printf("=== GIT vs SPT (abstract tree-level comparison, §1/§6) ===\n");
  std::printf("trials/point=%d; savings = 1 - GIT/SPT transmissions\n", trials);
  std::printf("%-6s | %-22s | %-22s | %-22s | %s\n", "nodes",
              "event-radius  (sav %)", "random-sources (sav %)",
              "corner placement (sav %)", "GIT/optimal");

  for (std::size_t nodes : {50u, 100u, 150u, 200u, 250u, 300u, 350u}) {
    const auto er = evaluate(
        nodes, trials,
        [](const net::Topology& t, sim::Rng& r) {
          return trees::make_event_radius_instance(t, 30.0, r);
        },
        false);
    const auto rs = evaluate(
        nodes, trials,
        [](const net::Topology& t, sim::Rng& r) {
          return trees::make_random_sources_instance(t, 5, r);
        },
        true);
    const auto corner = evaluate(
        nodes, trials,
        [](const net::Topology& t, sim::Rng& r) {
          return trees::make_corner_instance(t, 5, {0, 0, 80, 80},
                                             {164, 164, 200, 200}, r);
        },
        false);
    std::printf("%-6zu | %8.1f ± %-11.1f | %8.1f ± %-11.1f | %8.1f ± %-11.1f | %6.3f\n",
                nodes, er.savings.mean(), er.savings.stddev(),
                rs.savings.mean(), rs.savings.stddev(), corner.savings.mean(),
                corner.savings.stddev(), rs.git_over_opt.mean());
  }
  std::printf(
      "paper-expected shape: event-radius and random-sources savings stay "
      "under ~20%%; the corner placement (sources far from the sink, close "
      "to each other) yields much larger savings — the regime where the "
      "paper's greedy aggregation shines. GIT stays within 2x of the exact "
      "Steiner optimum (Takahashi-Matsuyama bound).\n");
  return 0;
}
