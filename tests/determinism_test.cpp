// Determinism harness: two runs with the same seed must be bit-identical.
//
// This is the cheap nondeterminism tripwire later perf PRs build against:
// any hash-order leak, uninitialised read, or wall-clock dependency that
// reaches the metrics shows up as a digest mismatch here.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/experiment.hpp"
#include "stats/digest.hpp"

namespace wsn {
namespace {

using scenario::ExperimentConfig;
using scenario::RunResult;
using scenario::run_experiment;

/// Digest of everything a run reports: headline metrics, per-node energy,
/// traffic counters, protocol counters, and the final tree.
std::uint64_t digest_run(const RunResult& res) {
  stats::Digest d;
  d.add(stats::digest_of(res.metrics));
  d.add(res.average_degree);
  for (net::NodeId s : res.sources) d.add(std::uint64_t{s});
  for (net::NodeId s : res.sinks) d.add(std::uint64_t{s});
  for (double j : res.node_energy_joules) d.add(j);
  d.add(res.energy_max_node_joules);
  d.add(res.energy_mean_node_joules);
  d.add(res.energy_stddev_node_joules);
  d.add(res.frames_sent);
  d.add(res.bytes_sent);
  d.add(res.arrivals_corrupted);
  d.add(res.drops);
  d.add(res.protocol.interests_sent);
  d.add(res.protocol.exploratory_sent);
  d.add(res.protocol.data_sent);
  d.add(res.protocol.icm_sent);
  d.add(res.protocol.reinforcements_sent);
  d.add(res.protocol.negatives_sent);
  d.add(res.protocol.repairs_attempted);
  d.add(res.protocol.aggregates_received);
  for (const auto& [a, b] : res.tree_edges) {
    d.add(std::uint64_t{a});
    d.add(std::uint64_t{b});
  }
  return d.value();
}

ExperimentConfig mid_size_config(core::Algorithm alg, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.field.nodes = 150;
  cfg.algorithm = alg;
  cfg.duration = sim::Time::seconds(120.0);
  cfg.seed = seed;
  return cfg;
}

TEST(Determinism, SameSeedBitIdenticalGreedy) {
  const ExperimentConfig cfg = mid_size_config(core::Algorithm::kGreedy, 42);
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  ASSERT_EQ(a.node_energy_joules.size(), b.node_energy_joules.size());
  EXPECT_EQ(stats::digest_of(a.metrics), stats::digest_of(b.metrics));
  EXPECT_EQ(digest_run(a), digest_run(b));
}

TEST(Determinism, SameSeedBitIdenticalOpportunistic) {
  const ExperimentConfig cfg =
      mid_size_config(core::Algorithm::kOpportunistic, 42);
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(digest_run(a), digest_run(b));
}

TEST(Determinism, SameSeedBitIdenticalUnderFailures) {
  // Node churn exercises the repair path, where hash-order bugs would hide.
  ExperimentConfig cfg = mid_size_config(core::Algorithm::kGreedy, 7);
  cfg.failures.enabled = true;
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(digest_run(a), digest_run(b));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the digest actually discriminates.
  const RunResult a =
      run_experiment(mid_size_config(core::Algorithm::kGreedy, 1));
  const RunResult b =
      run_experiment(mid_size_config(core::Algorithm::kGreedy, 2));
  EXPECT_NE(digest_run(a), digest_run(b));
}

/// Metric digests pinned for four small configs and one dense one, so a
/// change to the receive path, the MACs or the energy model that moves any
/// metric fails here and not only in the benchmark. The dense config is
/// dense_fig5's shape (350 nodes in 200x200 m, greedy, CSMA, 200 s), where
/// same-nanosecond ties between contenders are common; at 80 nodes they
/// are rare. A deliberate model change updates these values and says so.
/// The event counts are pinned too, so a change to the event stream (a
/// timer added or dropped) shows here even when it moves no metric.
TEST(Determinism, GoldenMetricDigests) {
  ExperimentConfig csma_greedy;
  csma_greedy.field.nodes = 80;
  csma_greedy.duration = sim::Time::seconds(60.0);
  csma_greedy.seed = 3;

  ExperimentConfig opportunistic_failures = csma_greedy;
  opportunistic_failures.algorithm = core::Algorithm::kOpportunistic;
  opportunistic_failures.failures.enabled = true;
  opportunistic_failures.failures.period = sim::Time::seconds(10.0);

  ExperimentConfig tdma_failures = csma_greedy;
  tdma_failures.mac_type = scenario::MacType::kTdma;
  tdma_failures.failures.enabled = true;
  tdma_failures.failures.period = sim::Time::seconds(10.0);

  // Directional interests scoped to the source corner: the only mode in
  // which nodes hold no gradient at all, so whether a node's gradient
  // table is empty decides whether it forwards exploratory events.
  ExperimentConfig directional_failures = opportunistic_failures;
  directional_failures.algorithm = core::Algorithm::kGreedy;
  directional_failures.diffusion.interest_propagation =
      diffusion::InterestPropagation::kDirectional;
  directional_failures.interest_region = directional_failures.source_rect;

  ExperimentConfig dense = csma_greedy;
  dense.field.nodes = 350;
  dense.duration = sim::Time::seconds(200.0);
  dense.seed = 1;

  const RunResult a = run_experiment(csma_greedy);
  EXPECT_EQ(stats::digest_of(a.metrics), 0x8a321c51371868f3ULL);
  EXPECT_EQ(a.events_dispatched, 46'089u);
  const RunResult b = run_experiment(opportunistic_failures);
  EXPECT_EQ(stats::digest_of(b.metrics), 0xb69ee5a02cb2fd52ULL);
  EXPECT_EQ(b.events_dispatched, 42'213u);
  const RunResult c = run_experiment(tdma_failures);
  EXPECT_EQ(stats::digest_of(c.metrics), 0x7d60afa43c41a7abULL);
  EXPECT_EQ(c.events_dispatched, 66'069u);
  const RunResult d = run_experiment(directional_failures);
  EXPECT_EQ(stats::digest_of(d.metrics), 0xa0a7a80941697cdbULL);
  EXPECT_EQ(d.events_dispatched, 33'223u);
  const RunResult e = run_experiment(dense);
  EXPECT_EQ(stats::digest_of(e.metrics), 0x53d678ddfada5e68ULL);
  EXPECT_EQ(e.events_dispatched, 230'476u);
}

TEST(Determinism, DigestIsOrderSensitive) {
  stats::Digest d1;
  d1.add(std::uint64_t{1});
  d1.add(std::uint64_t{2});
  stats::Digest d2;
  d2.add(std::uint64_t{2});
  d2.add(std::uint64_t{1});
  EXPECT_NE(d1.value(), d2.value());
}

}  // namespace
}  // namespace wsn
