// Tests of the benchmark's own helpers: the percentile rule, the metric
// tables, and the traced-stack digest check.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "harness.hpp"
#include "measure.hpp"
#include "stats/digest.hpp"
#include "traced_stack.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

// A workload small enough for a unit test, shaped like dense_fig5.
Workload tiny_workload(bool batch) {
  Workload w;
  w.name = "tiny";
  w.batch = batch;
  w.jobs = 2;
  for (std::uint64_t seed : {11, 12}) {
    wsn::scenario::ExperimentConfig cfg;
    cfg.field.nodes = 100;
    cfg.duration = wsn::sim::Time::seconds(30.0);
    cfg.failures.enabled = batch;
    cfg.seed = seed;
    w.configs.push_back(cfg);
  }
  w.setup_configs = w.configs;
  for (auto& cfg : w.setup_configs) cfg.duration = wsn::sim::Time::zero();
  w.traced = {0, 1};
  return w;
}

std::set<std::string> names_of(const std::vector<MetricSpec>& table) {
  std::set<std::string> names;
  for (const auto& spec : table) names.emplace(spec.name);
  return names;
}

std::set<std::string> keys_of(const Outcome& o) {
  std::set<std::string> keys;
  for (const auto& [name, value] : o.metrics) keys.insert(name);
  return keys;
}

TEST(TailPercentile, P90NeedsTenSamplesBeyond) {
  const Percentile short_p = tail_percentile(one_to(99), 0.9);
  EXPECT_FALSE(short_p.reported);
  EXPECT_EQ(short_p.samples, 99U);

  const Percentile p = tail_percentile(one_to(100), 0.9);
  EXPECT_TRUE(p.reported);
  EXPECT_EQ(p.samples, 100U);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
}

TEST(TailPercentile, P50NeedsTwentySamples) {
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).reported);
  const Percentile p = tail_percentile(one_to(20), 0.5);
  EXPECT_TRUE(p.reported);
  EXPECT_EQ(p.samples, 20U);
  EXPECT_DOUBLE_EQ(p.value, 10.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).reported);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(MetricTables, NamesAreWellFormedAndUnique) {
  std::set<std::string> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *table) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_FALSE(spec.unit.empty()) << spec.name;
      EXPECT_TRUE(seen.emplace(spec.name).second) << spec.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("sim s"));
  EXPECT_FALSE(valid_metric_name("p90/s"));
}

TEST(MetricTables, CoverEveryPrintedMetric) {
  for (bool batch : {false, true}) {
    const Workload w = tiny_workload(batch);
    const Outcome untraced = run_untraced(w, 0.0);
    EXPECT_TRUE(untraced.correct());
    EXPECT_EQ(keys_of(untraced), names_of(end_to_end_metrics()));
    const Outcome traced = run_traced(w);
    EXPECT_TRUE(traced.correct());
    EXPECT_EQ(keys_of(traced), names_of(per_layer_metrics()));
  }
}

TEST(MetricTables, PrintingAnUnknownMetricThrows) {
  Outcome o;
  o.attempted = 1;
  o.metrics["not_a_metric"] = 1.0;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_THROW(print_outcome(sink, o), std::logic_error);
  std::fclose(sink);
}

TEST(TracedStack, DigestCheckFiresOnADifferentSeed) {
  const Workload w = tiny_workload(true);
  const auto& cfg = w.configs[0];
  const std::uint64_t expected =
      wsn::stats::digest_of(wsn::scenario::run_experiment(cfg).metrics);
  EXPECT_EQ(run_traced_stack(cfg).digest, expected);
  auto other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(run_traced_stack(other).digest, expected);
}

TEST(Workloads, SeedsDeriveFromTheWorkloadSeed) {
  for (std::string_view name : workload_names()) {
    const auto a = make_workload(name, 7);
    const auto b = make_workload(name, 7);
    const auto c = make_workload(name, 8);
    ASSERT_TRUE(a && b && c);
    ASSERT_FALSE(a->configs.empty());
    for (std::size_t i = 0; i < a->configs.size(); ++i) {
      EXPECT_EQ(a->configs[i].seed, run_seed(7, i));
      EXPECT_EQ(a->configs[i].seed, b->configs[i].seed);
      EXPECT_NE(a->configs[i].seed, c->configs[i].seed);
    }
    ASSERT_FALSE(a->setup_configs.empty());
    for (std::size_t i = 0; i < a->setup_configs.size(); ++i) {
      EXPECT_EQ(a->setup_configs[i].seed, run_seed(7, i));
      EXPECT_EQ(a->setup_configs[i].duration, wsn::sim::Time::zero());
    }
  }
  EXPECT_FALSE(make_workload("nope", 7));
}

}  // namespace
}  // namespace perfbench
