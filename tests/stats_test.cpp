// Unit tests for accumulators and the paper's metrics.
#include <gtest/gtest.h>

#include "diffusion/types.hpp"
#include "stats/accumulator.hpp"
#include "stats/metrics.hpp"

namespace wsn::stats {
namespace {

/// The packed key the protocol hands the collector for item (source, seq).
std::uint64_t key(std::uint32_t source, std::uint32_t seq) {
  return diffusion::DataItemKey{source, seq}.packed();
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.sem(), a.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_TRUE(std::isnan(a.variance()));
  EXPECT_TRUE(std::isnan(a.min()));
}

TEST(Accumulator, SingleValueHasUnknownSpread) {
  // One sample fixes the mean but says nothing about the spread: variance
  // and SEM are NaN (unknown), never a misleading 0.0. The CSV/JSON
  // writers turn the NaN into an empty field / null.
  Accumulator a;
  a.add(3.5);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
  EXPECT_TRUE(std::isnan(a.variance()));
  EXPECT_TRUE(std::isnan(a.stddev()));
  EXPECT_TRUE(std::isnan(a.sem()));
}

TEST(Accumulator, TwoValuesHaveFiniteSpread) {
  Accumulator a;
  a.add(1.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 2.0);
  EXPECT_DOUBLE_EQ(a.sem(), std::sqrt(2.0) / std::sqrt(2.0));
}

TEST(MetricsCollector, CountsDistinctPerSink) {
  MetricsCollector c;
  const auto t0 = sim::Time::seconds(1.0);
  for (int i = 0; i < 3; ++i) c.on_event_generated();

  // Sink 100 receives item (7,0) twice: only the first counts.
  c.on_event_delivered(100, key(7, 0), t0, sim::Time::seconds(1.5));
  c.on_event_delivered(100, key(7, 0), t0, sim::Time::seconds(2.5));
  // A second sink receiving the same item counts separately.
  c.on_event_delivered(101, key(7, 0), t0, sim::Time::seconds(2.0));

  EXPECT_EQ(c.distinct_generated(), 3u);
  EXPECT_EQ(c.distinct_received(), 2u);
  EXPECT_EQ(c.sinks_seen(), 2u);
  // Delays: 0.5 (first at sink 100) and 1.0 (sink 101); the duplicate is
  // not measured.
  EXPECT_DOUBLE_EQ(c.delay().mean(), 0.75);
}

TEST(MetricsCollector, FinalizeComputesPaperMetrics) {
  MetricsCollector c;
  const auto t0 = sim::Time::zero();
  for (int i = 0; i < 10; ++i) c.on_event_generated();
  for (std::uint32_t i = 0; i < 8; ++i) {
    c.on_event_delivered(50, key(1, i), t0, sim::Time::seconds(0.2));
  }
  // 20 J total, 5 J active, 4 nodes, 1 sink.
  const RunMetrics m = c.finalize(20.0, 5.0, 4, 1);
  EXPECT_EQ(m.distinct_generated, 10u);
  EXPECT_EQ(m.distinct_received, 8u);
  // (20 J / 4 nodes) / 8 events.
  EXPECT_DOUBLE_EQ(m.avg_dissipated_energy, 0.625);
  EXPECT_DOUBLE_EQ(m.avg_active_energy, 5.0 / 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(m.avg_delay, 0.2);
  EXPECT_DOUBLE_EQ(m.delivery_ratio, 0.8);
}

TEST(MetricsCollector, MultiSinkNormalisation) {
  MetricsCollector c;
  const auto t0 = sim::Time::zero();
  for (int i = 0; i < 4; ++i) c.on_event_generated();
  // Two sinks, each receives all 4 events.
  for (net::NodeId sink : {10u, 11u}) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      c.on_event_delivered(sink, key(1, i), t0, sim::Time::seconds(0.1));
    }
  }
  const RunMetrics m = c.finalize(1.0, 1.0, 2, 2);
  EXPECT_EQ(m.distinct_received, 8u);
  EXPECT_DOUBLE_EQ(m.delivery_ratio, 1.0);  // normalised per sink
}

TEST(MetricsCollector, ZeroReceivedIsSafe) {
  MetricsCollector c;
  c.on_event_generated();
  const RunMetrics m = c.finalize(10.0, 1.0, 4, 1);
  EXPECT_DOUBLE_EQ(m.avg_dissipated_energy, 0.0);
  EXPECT_DOUBLE_EQ(m.delivery_ratio, 0.0);
}

}  // namespace
}  // namespace wsn::stats
