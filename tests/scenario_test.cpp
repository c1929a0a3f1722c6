// Tests for the experiment runner, placement and failure machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/algorithm.hpp"
#include "mac/csma_mac.hpp"
#include "mac/tdma_mac.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/sweep.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/accumulator.hpp"

namespace wsn::scenario {
namespace {

ExperimentConfig small_config(core::Algorithm alg,
                              std::size_t nodes = 70,
                              double seconds = 80.0) {
  ExperimentConfig cfg;
  cfg.field.nodes = nodes;
  cfg.algorithm = alg;
  cfg.duration = sim::Time::seconds(seconds);
  cfg.seed = 5;
  return cfg;
}

TEST(Experiment, CornerPlacementRespectsRects) {
  const auto cfg = small_config(core::Algorithm::kOpportunistic);
  const RunResult res = run_experiment(cfg);
  EXPECT_EQ(res.sources.size(), cfg.num_sources);
  EXPECT_EQ(res.sinks.size(), cfg.num_sinks);
  for (net::NodeId s : res.sources) {
    EXPECT_NE(s, res.sinks[0]);
  }
}

TEST(Experiment, CornerSinkIsNeverASource) {
  // Three nodes, sources drawn from the whole field and a sink rect that
  // often holds only a source: the sink falls back to the one node left.
  ExperimentConfig cfg;
  cfg.field.nodes = 3;
  cfg.field.side_m = 60.0;
  cfg.num_sources = 2;
  cfg.source_rect = {0.0, 0.0, 60.0, 60.0};
  cfg.sink_rect = {50.0, 50.0, 60.0, 60.0};
  cfg.duration = sim::Time::seconds(1.0);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cfg.seed = seed;
    const RunResult res = run_experiment(cfg);
    ASSERT_EQ(res.sources.size(), 2u);
    ASSERT_EQ(res.sinks.size(), 1u);
    for (net::NodeId s : res.sources) {
      EXPECT_NE(s, res.sinks[0]) << "seed " << seed;
    }
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto cfg = small_config(core::Algorithm::kGreedy, 60, 60.0);
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(a.metrics.distinct_generated, b.metrics.distinct_generated);
  EXPECT_EQ(a.metrics.distinct_received, b.metrics.distinct_received);
  EXPECT_DOUBLE_EQ(a.metrics.avg_dissipated_energy,
                   b.metrics.avg_dissipated_energy);
  EXPECT_DOUBLE_EQ(a.metrics.avg_delay, b.metrics.avg_delay);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto cfg = small_config(core::Algorithm::kOpportunistic, 60, 60.0);
  const RunResult a = run_experiment(cfg);
  cfg.seed = 6;
  const RunResult b = run_experiment(cfg);
  EXPECT_NE(a.frames_sent, b.frames_sent);
}

TEST(Experiment, DeliversOnStaticField) {
  for (auto alg : {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    const RunResult res = run_experiment(small_config(alg));
    EXPECT_GT(res.metrics.delivery_ratio, 0.9) << core::to_string(alg);
    EXPECT_GT(res.metrics.avg_dissipated_energy, 0.0);
    EXPECT_GT(res.metrics.avg_delay, 0.0);
    EXPECT_LT(res.metrics.avg_delay, 2.0);
    EXPECT_FALSE(res.tree_edges.empty());
  }
}

TEST(Experiment, EnergyIsBoundedByPhysics) {
  const auto cfg = small_config(core::Algorithm::kOpportunistic);
  const RunResult res = run_experiment(cfg);
  const double t = cfg.duration.as_seconds();
  const double n = static_cast<double>(cfg.field.nodes);
  // Total energy within [all-idle, all-transmit] envelope.
  EXPECT_GE(res.metrics.total_energy_joules,
            cfg.energy.idle_watts * t * n * 0.99);
  EXPECT_LE(res.metrics.total_energy_joules, cfg.energy.tx_watts * t * n);
  EXPECT_LT(res.metrics.total_active_energy_joules,
            res.metrics.total_energy_joules);
}

TEST(Experiment, FailuresReduceDeliveryButNotFatally) {
  auto cfg = small_config(core::Algorithm::kOpportunistic, 90, 100.0);
  const double base = run_experiment(cfg).metrics.delivery_ratio;
  cfg.failures.enabled = true;
  const RunResult res = run_experiment(cfg);
  EXPECT_LT(res.metrics.delivery_ratio, 1.0);
  EXPECT_GT(res.metrics.delivery_ratio, 0.3);
  EXPECT_LE(res.metrics.delivery_ratio, base + 0.05);
}

TEST(Experiment, MultiSinkDeliversToAll) {
  auto cfg = small_config(core::Algorithm::kGreedy, 90, 80.0);
  cfg.num_sinks = 3;
  const RunResult res = run_experiment(cfg);
  ASSERT_EQ(res.sinks.size(), 3u);
  // All three sinks counted: normalised ratio stays high only if each sink
  // receives most events.
  EXPECT_GT(res.metrics.delivery_ratio, 0.7);
  EXPECT_GT(res.metrics.distinct_received,
            res.metrics.distinct_generated);  // > 1 sink's worth
}

TEST(Experiment, RandomPlacementWorks) {
  auto cfg = small_config(core::Algorithm::kGreedy);
  cfg.source_placement = SourcePlacement::kRandom;
  const RunResult res = run_experiment(cfg);
  EXPECT_EQ(res.sources.size(), cfg.num_sources);
  EXPECT_GT(res.metrics.delivery_ratio, 0.8);
}

TEST(Experiment, LinearAggregationSendsMoreBytes) {
  auto cfg = small_config(core::Algorithm::kGreedy, 80, 80.0);
  cfg.num_sources = 8;
  const auto perfect_bytes = run_experiment(cfg).bytes_sent;
  cfg.diffusion.aggregation = agg::kLinear;
  const auto linear_bytes = run_experiment(cfg).bytes_sent;
  EXPECT_GT(linear_bytes, perfect_bytes);
}

TEST(Sweep, AveragesOverReplicates) {
  const auto cfg = small_config(core::Algorithm::kOpportunistic, 60, 40.0);
  const AveragedPoint p = run_replicates(cfg, 3, 11);
  EXPECT_EQ(p.replicates, 3);
  EXPECT_EQ(p.energy.count(), 3u);
  EXPECT_GT(p.energy.mean(), 0.0);
  EXPECT_GT(p.delivery.mean(), 0.5);
  EXPECT_GT(p.degree.mean(), 3.0);

  // The per-node energy spread averages the same seeds' runs.
  stats::Accumulator max_node, mean_node, stddev_node;
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    ExperimentConfig one = cfg;
    one.seed = seed;
    const RunResult r = run_experiment(one);
    max_node.add(r.energy_max_node_joules);
    mean_node.add(r.energy_mean_node_joules);
    stddev_node.add(r.energy_stddev_node_joules);
  }
  EXPECT_EQ(p.max_node_energy.count(), 3u);
  EXPECT_EQ(p.mean_node_energy.count(), 3u);
  EXPECT_EQ(p.stddev_node_energy.count(), 3u);
  EXPECT_DOUBLE_EQ(p.max_node_energy.mean(), max_node.mean());
  EXPECT_DOUBLE_EQ(p.mean_node_energy.mean(), mean_node.mean());
  EXPECT_DOUBLE_EQ(p.stddev_node_energy.mean(), stddev_node.mean());
  EXPECT_GT(p.max_node_energy.mean(), p.mean_node_energy.mean());
}

TEST(Sweep, EnvOverrides) {
  ::setenv("WSN_FIELDS", "7", 1);
  EXPECT_EQ(fields_from_env(3), 7);
  ::unsetenv("WSN_FIELDS");
  EXPECT_EQ(fields_from_env(3), 3);

  ::setenv("WSN_SIM_TIME", "123.5", 1);
  EXPECT_DOUBLE_EQ(sim_seconds_from_env(400.0), 123.5);
  ::unsetenv("WSN_SIM_TIME");
  EXPECT_DOUBLE_EQ(sim_seconds_from_env(400.0), 400.0);

  ::setenv("WSN_FIELDS", "garbage", 1);
  EXPECT_EQ(fields_from_env(3), 3);
  ::unsetenv("WSN_FIELDS");
}

TEST(Sweep, EnvRejectsMalformedValuesLoudly) {
  // atoi would have silently accepted all of these; the strtol/strtod
  // parser rejects them (with a stderr warning) and keeps the fallback.
  for (const char* bad : {"abc", "12abc", "0", "-3", "", " 5 ",
                          "99999999999999999999999999"}) {
    ::setenv("WSN_FIELDS", bad, 1);
    EXPECT_EQ(fields_from_env(4), 4) << "WSN_FIELDS=" << bad;
  }
  ::unsetenv("WSN_FIELDS");

  for (const char* bad :
       {"zero", "0", "-5", "5x", "nan", "inf", "1e400", ""}) {
    ::setenv("WSN_SIM_TIME", bad, 1);
    EXPECT_DOUBLE_EQ(sim_seconds_from_env(200.0), 200.0)
        << "WSN_SIM_TIME=" << bad;
  }
  ::unsetenv("WSN_SIM_TIME");
}

TEST(Sweep, EnvLongValidatesRangeAndShape) {
  ::setenv("WSN_TEST_KNOB", "12", 1);
  EXPECT_EQ(env_long("WSN_TEST_KNOB", 1, 1, 100), 12);
  ::setenv("WSN_TEST_KNOB", "101", 1);  // above hi
  EXPECT_EQ(env_long("WSN_TEST_KNOB", 1, 1, 100), 1);
  ::setenv("WSN_TEST_KNOB", "0", 1);  // below lo
  EXPECT_EQ(env_long("WSN_TEST_KNOB", 1, 1, 100), 1);
  ::setenv("WSN_TEST_KNOB", "7.5", 1);  // trailing junk
  EXPECT_EQ(env_long("WSN_TEST_KNOB", 1, 1, 100), 1);
  ::unsetenv("WSN_TEST_KNOB");
  EXPECT_EQ(env_long("WSN_TEST_KNOB", 9, 1, 100), 9);

  ::setenv("WSN_TEST_KNOB", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("WSN_TEST_KNOB", 1.0, 0.0, 10.0), 2.25);
  ::setenv("WSN_TEST_KNOB", "-1", 1);
  EXPECT_DOUBLE_EQ(env_double("WSN_TEST_KNOB", 1.0, 0.0, 10.0), 1.0);
  ::unsetenv("WSN_TEST_KNOB");

  // The parsers behind the env readers, over the values wsnctl must
  // refuse for --nodes/--sinks (integers >= 1) and --duration (> 0).
  for (const char* bad : {"-5", "abc", "0", "5x", ""}) {
    EXPECT_FALSE(parse_long(bad, 1, 1'000'000).has_value()) << bad;
  }
  for (const char* bad : {"-5", "5x", "0", "abc", "nan"}) {
    EXPECT_FALSE(parse_double(bad, 1e-9, 1e9).has_value()) << bad;
  }
  EXPECT_EQ(parse_long("350", 1, 1'000'000), 350);
  EXPECT_DOUBLE_EQ(parse_double("20", 1e-9, 1e9).value_or(0.0), 20.0);
  const char* reason = nullptr;
  EXPECT_FALSE(parse_long("5x", 1, 10, &reason).has_value());
  EXPECT_STREQ(reason, "not an integer");
  EXPECT_FALSE(parse_double("-5", 1e-9, 1e9, &reason).has_value());
  EXPECT_STREQ(reason, "out of range");
}

TEST(Experiment, PerNodeEnergyExposedAndConsistent) {
  const RunResult res = run_experiment(small_config(core::Algorithm::kGreedy));
  ASSERT_EQ(res.node_energy_joules.size(), 70u);
  ASSERT_EQ(res.node_positions.size(), 70u);
  double sum = 0.0, mx = 0.0;
  for (double j : res.node_energy_joules) {
    EXPECT_GE(j, 0.0);
    sum += j;
    mx = std::max(mx, j);
  }
  EXPECT_NEAR(sum, res.metrics.total_energy_joules, 1e-6);
  EXPECT_DOUBLE_EQ(mx, res.energy_max_node_joules);
  EXPECT_NEAR(sum / 70.0, res.energy_mean_node_joules, 1e-9);
}

TEST(Experiment, DirectionalInterestsCutInterestTraffic) {
  auto cfg = small_config(core::Algorithm::kGreedy, 120, 80.0);
  cfg.interest_region = cfg.source_rect;  // task scoped to the corner
  const auto flood = run_experiment(cfg);
  cfg.diffusion.interest_propagation =
      diffusion::InterestPropagation::kDirectional;
  const auto directional = run_experiment(cfg);
  EXPECT_LT(directional.protocol.interests_sent,
            flood.protocol.interests_sent * 3 / 4);
  EXPECT_GT(directional.metrics.delivery_ratio, 0.85);
}

TEST(Experiment, TdmaMacTypeRuns) {
  auto cfg = small_config(core::Algorithm::kOpportunistic, 50, 60.0);
  cfg.mac_type = MacType::kTdma;
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.metrics.delivery_ratio, 0.7);
  EXPECT_EQ(res.arrivals_corrupted, 0u);
}

TEST(Experiment, ReportsADisconnectedField) {
  // Six nodes with a 5 m radio in a 200 m square are never connected: the
  // generator gives up, keeps its last field, and the run still completes.
  auto cfg = small_config(core::Algorithm::kGreedy, 6, 30.0);
  cfg.field.radio_range_m = 5.0;
  const RunResult res = run_experiment(cfg);
  EXPECT_FALSE(res.field_connected);
  EXPECT_EQ(res.field_attempts, net::kMaxFieldAttempts);
  EXPECT_EQ(res.node_positions.size(), 6u);
}

TEST(Experiment, RejectsFewerNodesThanEndpoints) {
  auto cfg = small_config(core::Algorithm::kGreedy, 3, 5.0);  // 5 + 1 needed
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.field.nodes = 0;
  cfg.num_sources = 0;
  cfg.num_sinks = 0;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, RejectsAnInvalidFailureModel) {
  auto cfg = small_config(core::Algorithm::kGreedy, 30, 5.0);
  cfg.failures.enabled = true;
  cfg.failures.period = sim::Time::zero();
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.failures.period = sim::Time::seconds(1.0);
  cfg.failures.fraction = -0.5;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.failures.fraction = 1.01;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

// One config knob set to a value that cannot run, and the field name the
// error message must carry.
struct BadConfig {
  const char* field;
  void (*apply)(ExperimentConfig&);
};

void expect_rejected(const BadConfig& bad, bool run) {
  ExperimentConfig cfg = small_config(core::Algorithm::kGreedy, 30, 5.0);
  bad.apply(cfg);
  try {
    if (run) {
      (void)run_experiment(cfg);
    } else {
      validate(cfg);
    }
    ADD_FAILURE() << bad.field << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(bad.field), std::string::npos)
        << e.what();
  }
}

TEST(Experiment, RejectsConfigsThatWouldRunEmpty) {
  // Each of these used to come back as a RunResult with no generated
  // event and no error.
  const BadConfig cases[] = {
      {"field.side_m", [](ExperimentConfig& c) { c.field.side_m = -5.0; }},
      {"field.side_m", [](ExperimentConfig& c) { c.field.side_m = NAN; }},
      {"phy.queue_limit", [](ExperimentConfig& c) { c.phy.queue_limit = 0; }},
      {"phy.bitrate_bps", [](ExperimentConfig& c) { c.phy.bitrate_bps = 0; }},
      {"duration",
       [](ExperimentConfig& c) { c.duration = sim::Time::seconds(-1.0); }},
      {"source_rect",
       [](ExperimentConfig& c) { c.source_rect = {0.0, 0.0, 80.0, 250.0}; }},
      {"sink_rect",
       [](ExperimentConfig& c) { c.sink_rect = {200.0, 164.0, 164.0, 200.0}; }},
      {"interest_region",
       [](ExperimentConfig& c) { c.interest_region = {{0.0, 0.0, NAN, 1.0}}; }},
      {"num_sources", [](ExperimentConfig& c) { c.num_sources = 0; }},
      {"num_sinks", [](ExperimentConfig& c) { c.num_sinks = 0; }},
  };
  for (const BadConfig& bad : cases) expect_rejected(bad, /*run=*/true);
}

TEST(Experiment, RejectsPeriodsThatNeverAdvance) {
  // Each of these used to hang run_experiment (a timer re-armed at the
  // same instant) or crash it (SIGFPE on a zero slot), so they are checked
  // through validate() alone.
  const BadConfig cases[] = {
      {"diffusion.data_rate_hz",
       [](ExperimentConfig& c) { c.diffusion.data_rate_hz = 0.0; }},
      {"diffusion.data_rate_hz",
       [](ExperimentConfig& c) { c.diffusion.data_rate_hz = -2.0; }},
      {"diffusion.interest_period",
       [](ExperimentConfig& c) { c.diffusion.interest_period = {}; }},
      {"diffusion.exploratory_period",
       [](ExperimentConfig& c) { c.diffusion.exploratory_period = {}; }},
      {"diffusion.t_n", [](ExperimentConfig& c) { c.diffusion.t_n = {}; }},
      {"diffusion.repair_silence",
       [](ExperimentConfig& c) { c.diffusion.repair_silence = {}; }},
      {"phy.slot", [](ExperimentConfig& c) { c.phy.slot = {}; }},
  };
  for (const BadConfig& bad : cases) expect_rejected(bad, /*run=*/false);
}

TEST(Experiment, OneMessageNamesEveryOffendingField) {
  ExperimentConfig cfg = small_config(core::Algorithm::kGreedy, 30, 5.0);
  cfg.field.side_m = -5.0;
  cfg.phy.slot = sim::Time::zero();
  cfg.failures.enabled = true;
  cfg.failures.period = sim::Time::zero();
  cfg.failures.fraction = 2.0;
  try {
    validate(cfg);
    FAIL() << "accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* field : {"field.side_m", "phy.slot", "failures.period",
                              "failures.fraction", "source_rect"}) {
      EXPECT_NE(what.find(field), std::string::npos) << field << ": " << what;
    }
  }
}

TEST(Experiment, AcceptsTheDefaultAndZeroDurationConfigs) {
  ExperimentConfig cfg;
  EXPECT_NO_THROW(validate(cfg));
  cfg.duration = sim::Time::zero();
  cfg.mac_type = MacType::kTdma;
  EXPECT_NO_THROW(validate(cfg));
}

TEST(Experiment, ConfigDigestCoversEveryParameterStruct) {
  // One field of each sub-struct; only the seed and the trace spec are
  // left out of the digest.
  const ExperimentConfig base;
  std::vector<ExperimentConfig> variants(10, base);
  variants[0].field.carrier_sense_range_m = 80.0;
  variants[1].diffusion.t_p = sim::Time::seconds(2.0);
  variants[2].diffusion.enable_truncation = false;
  variants[3].diffusion.aggregation = agg::kLinear;
  variants[4].phy.cw_min = 15;
  variants[5].energy.idle_watts = 0.04;
  variants[6].tdma.guard = sim::Time::micros(30);
  variants[7].failures.protect_endpoints = false;
  variants[8].interest_region = base.source_rect;
  variants[9].duration = sim::Time::seconds(1.0);
  const std::uint64_t d0 = config_digest(base);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(config_digest(variants[i]), d0) << "variant " << i;
  }
  ExperimentConfig same = base;
  same.seed = 99;
  same.trace.path = "trace-{seed}";
  EXPECT_EQ(config_digest(same), d0);
}

TEST(Experiment, PaperDensityFieldIsConnected) {
  ExperimentConfig cfg;
  cfg.field.nodes = 350;
  cfg.duration = sim::Time::seconds(5.0);
  const RunResult res = run_experiment(cfg);
  EXPECT_TRUE(res.field_connected);
  EXPECT_GE(res.field_attempts, 1);
}

TEST(Experiment, TreeEdgesAreValidNodePairs) {
  const RunResult res = run_experiment(small_config(core::Algorithm::kGreedy));
  for (const auto& [from, to] : res.tree_edges) {
    EXPECT_LT(from, 70u);
    EXPECT_LT(to, 70u);
    EXPECT_NE(from, to);
  }
}

TEST(Network, BuildsEveryLayerByIdAndSchedulesOnlyTdmaSlots) {
  // Building the stack schedules nothing for CSMA and one first-slot event
  // per TDMA MAC, and wires MAC and node `id` to radio `id`. So the order
  // the stack is built in cannot move a result. The objects sit in the
  // topology's cell order, which here is not the id order: 40 m cells put
  // ids 0, 1, 3, 4 in the first and 2, 5 in the second.
  const net::Topology topo{
      {{0, 0}, {30, 0}, {60, 0}, {0, 30}, {30, 30}, {60, 30}}, 40.0};
  const std::vector<net::NodeId> cell_order{0, 1, 3, 4, 2, 5};
  ASSERT_TRUE(std::ranges::equal(topo.cell_order(), cell_order));
  for (const core::Algorithm alg :
       {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    for (const MacType type : {MacType::kCsma, MacType::kTdma}) {
      SCOPED_TRACE(::testing::Message()
                   << core::to_string(alg) << ", "
                   << (type == MacType::kCsma ? "csma" : "tdma"));
      ExperimentConfig config;
      config.algorithm = alg;
      config.mac_type = type;
      sim::Simulator sim;
      Network network{sim, topo, config, sim::Rng{1}, nullptr};
      ASSERT_EQ(network.size(), topo.node_count());
      EXPECT_EQ(sim.events_pending(),
                type == MacType::kCsma ? 0u : topo.node_count());
      for (net::NodeId id = 0; id < network.size(); ++id) {
        EXPECT_EQ(network.mac(id).id(), id);
        EXPECT_EQ(network.macs()[id], &network.mac(id));
        EXPECT_EQ(network.node(id).id(), id);
        EXPECT_EQ(typeid(network.mac(id)), type == MacType::kCsma
                                               ? typeid(mac::CsmaMac)
                                               : typeid(mac::TdmaMac));
        EXPECT_EQ(typeid(network.node(id)),
                  alg == core::Algorithm::kGreedy
                      ? typeid(core::GreedyNode)
                      : typeid(diffusion::OpportunisticNode));
      }
      // Storage follows the cell order: each slot after the last.
      for (std::size_t k = 1; k < cell_order.size(); ++k) {
        EXPECT_TRUE(std::less<>{}(&network.mac(cell_order[k - 1]),
                                  &network.mac(cell_order[k])));
        EXPECT_TRUE(std::less<>{}(&network.node(cell_order[k - 1]),
                                  &network.node(cell_order[k])));
      }
    }
  }
}

// 1500 greedy nodes (2.8 MB) and their CSMA MACs fill more than one 1 MiB
// allocation each; every id still reaches its own MAC and node.
TEST(Network, BlocksSpanningSeveralAllocationsKeepEveryId) {
  net::FieldSpec spec;
  spec.nodes = 1500;
  spec.side_m = 400.0;
  sim::Rng rng{5};
  const net::Topology topo{net::generate_uniform_field(spec, rng),
                           spec.radio_range_m, spec.carrier_sense_range_m};
  ExperimentConfig config;
  config.algorithm = core::Algorithm::kGreedy;
  sim::Simulator sim;
  Network network{sim, topo, config, sim::Rng{1}, nullptr};
  ASSERT_EQ(network.size(), spec.nodes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    ASSERT_EQ(network.mac(id).id(), id);
    ASSERT_EQ(network.node(id).id(), id);
  }
}

}  // namespace
}  // namespace wsn::scenario
