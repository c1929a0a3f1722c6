// Cross-module property tests and failure injection: invariants that must
// hold over randomised fields, seeds and parameter choices.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "sim/random.hpp"
#include "trees/aggregation_trees.hpp"
#include "trees/graph.hpp"

namespace wsn {
namespace {

// --------------------------------------------------------------- topology

TEST(CrossModule, HopDistanceMatchesDijkstraOnUnitWeights) {
  sim::Rng rng{31};
  net::FieldSpec spec;
  spec.nodes = 80;
  const net::Topology topo =
      net::generate_connected_topology(spec, rng).topology;
  const trees::Graph g = trees::graph_from_topology(topo);
  const auto sp = trees::dijkstra(g, 0);
  for (net::NodeId v = 0; v < topo.node_count(); v += 7) {
    const int bfs = topo.hop_distance(0, v);
    ASSERT_GE(bfs, 0);
    EXPECT_DOUBLE_EQ(sp.dist[v], static_cast<double>(bfs)) << "node " << v;
  }
}

// GIT source-order invariance of *feasibility* and boundedness: any order
// yields a valid tree within the approximation bound of the best order.
TEST(CrossModule, GitOrderVariantsStayBounded) {
  sim::Rng rng{32};
  net::FieldSpec spec;
  spec.nodes = 70;
  const net::Topology topo =
      net::generate_connected_topology(spec, rng).topology;
  const trees::Graph g = trees::graph_from_topology(topo);

  std::vector<trees::Vertex> sources{5, 12, 23, 34, 45};
  const trees::Vertex sink = 60;
  double best = 1e18, worst = 0;
  for (int perm = 0; perm < 10; ++perm) {
    rng.shuffle(sources);
    const auto t = trees::greedy_incremental_tree(g, sink, sources);
    ASSERT_TRUE(t.feasible);
    best = std::min(best, t.total_weight);
    worst = std::max(worst, t.total_weight);
  }
  EXPECT_LE(worst, 2.0 * best);  // loose sanity: order matters only mildly
}

// ------------------------------------------------- end-to-end invariants

struct EndToEndCase {
  core::Algorithm algorithm;
  std::uint64_t seed;
  bool failures;
};

class EndToEndProperty : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndProperty, InvariantsHold) {
  const auto& c = GetParam();
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 90;
  cfg.algorithm = c.algorithm;
  cfg.seed = c.seed;
  cfg.duration = sim::Time::seconds(90.0);
  cfg.failures.enabled = c.failures;

  const auto res = scenario::run_experiment(cfg);

  // Conservation-style invariants.
  EXPECT_LE(res.metrics.distinct_received,
            res.metrics.distinct_generated * res.sinks.size());
  EXPECT_GE(res.metrics.delivery_ratio, 0.0);
  EXPECT_LE(res.metrics.delivery_ratio, 1.0 + 1e-9);
  EXPECT_GE(res.metrics.avg_delay, 0.0);

  // Energy envelope: between all-idle (some nodes were off under failures)
  // and all-transmit.
  const double t = cfg.duration.as_seconds();
  const double n = static_cast<double>(cfg.field.nodes);
  EXPECT_GT(res.metrics.total_energy_joules, 0.0);
  EXPECT_LE(res.metrics.total_energy_joules, cfg.energy.tx_watts * t * n);
  if (!c.failures) {
    EXPECT_GE(res.metrics.total_energy_joules,
              cfg.energy.idle_watts * t * n * 0.999);
  }
  EXPECT_LE(res.metrics.total_active_energy_joules,
            res.metrics.total_energy_joules + 1e-9);

  // The protocol always establishes something.
  EXPECT_GT(res.protocol.reinforcements_sent, 0u);
  EXPECT_GT(res.frames_sent, 0u);

  // A static network must deliver nearly everything; a failing one most.
  EXPECT_GT(res.metrics.delivery_ratio, c.failures ? 0.35 : 0.9);
}

std::vector<EndToEndCase> end_to_end_cases() {
  std::vector<EndToEndCase> cases;
  for (auto alg : {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      cases.push_back({alg, seed, false});
      cases.push_back({alg, seed, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndProperty, ::testing::ValuesIn(end_to_end_cases()),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return std::string(core::to_string(info.param.algorithm)) + "_s" +
             std::to_string(info.param.seed) +
             (info.param.failures ? "_fail" : "_static");
    });

// ---------------------------------------------- aggregation-fn properties

using NamedSize = std::pair<const char*, agg::AggregateSize>;

class AggregationSizeProperty : public ::testing::TestWithParam<NamedSize> {};

TEST_P(AggregationSizeProperty, MonotoneAndPositive) {
  const auto& [name, size] = GetParam();
  std::uint32_t prev = 0;
  for (std::size_t d = 1; d <= 20; ++d) {
    const auto z = size.bytes(d);
    EXPECT_GT(z, 0u);
    EXPECT_GE(z, prev) << name << " at d=" << d;
    prev = z;
  }
}

TEST_P(AggregationSizeProperty, NeverWorseThanUnaggregatedLinearBound) {
  // Any sane aggregation of d items is no bigger than d separate packets
  // of (event + header) bytes.
  const auto& [name, size] = GetParam();
  for (std::size_t d = 1; d <= 20; ++d) {
    EXPECT_LE(size.bytes(d), d * (64 + 36)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Functions, AggregationSizeProperty,
    ::testing::Values(NamedSize{"perfect", agg::kPerfect},
                      NamedSize{"linear", agg::kLinear},
                      NamedSize{"packing", agg::kPacking},
                      NamedSize{"timestamp", agg::kTimestamp}),
    [](const auto& info) { return std::string{info.param.first}; });

// ------------------------------------------------ parameter-sweep checks

class ExploratoryPeriodProperty : public ::testing::TestWithParam<double> {};

TEST_P(ExploratoryPeriodProperty, DeliveryHoldsAcrossPeriods) {
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 80;
  cfg.algorithm = core::Algorithm::kGreedy;
  cfg.seed = 3;
  cfg.duration = sim::Time::seconds(90.0);
  cfg.diffusion.exploratory_period = sim::Time::seconds(GetParam());
  const auto res = scenario::run_experiment(cfg);
  EXPECT_GT(res.metrics.delivery_ratio, 0.9) << "period " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Periods, ExploratoryPeriodProperty,
                         ::testing::Values(10.0, 25.0, 50.0));

}  // namespace
}  // namespace wsn
