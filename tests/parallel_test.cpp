// Tests for the parallel replicate engine: for_each_index itself, the
// WSN_JOBS knob, and the headline guarantee — the parallel path is
// bit-identical (digest-equal) to the serial path for any job count.
//
// CI runs this binary under ThreadSanitizer with WSN_JOBS=4, so every data
// race between replicate workers (audit counters, slot writes)
// is a test failure, not just a wrong number.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/parallel.hpp"
#include "scenario/sweep.hpp"

namespace wsn::scenario {
namespace {

TEST(ForEachIndex, RunsEveryIndexExactlyOnce) {
  std::vector<int> hits(100, 0);
  for_each_index(
      hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ForEachIndex, HandlesZeroFewAndManyIndices) {
  // count == 0, count < jobs, count >> jobs.
  std::atomic<int> ran{0};
  for_each_index(
      0, [&](std::size_t) { ran.fetch_add(1); }, 3);
  EXPECT_EQ(ran.load(), 0);
  for_each_index(
      2, [&](std::size_t) { ran.fetch_add(1); }, 3);
  EXPECT_EQ(ran.load(), 2);
  for_each_index(
      50, [&](std::size_t) { ran.fetch_add(1); }, 3);
  EXPECT_EQ(ran.load(), 52);
}

TEST(ForEachIndex, RethrowsATaskExceptionAfterEveryIndexRan) {
  std::vector<int> ran(8, 0);
  try {
    for_each_index(
        ran.size(),
        [&](std::size_t i) {
          if (i == 5) throw std::runtime_error("boom at 5");
          ran[i] = 1;
        },
        2);
    FAIL() << "the task exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1, 1, 0, 1, 1}));
}

TEST(ForEachIndex, TaskMayCallItAgain) {
  // A task may start its own batch (with the env-default job count) while
  // the outer batch is still running.
  std::vector<std::vector<int>> hits(4, std::vector<int>(10, 0));
  for_each_index(
      hits.size(),
      [&](std::size_t outer) {
        for_each_index(hits[outer].size(),
                       [&](std::size_t inner) { ++hits[outer][inner]; }, 0);
      },
      4);
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ForEachIndex, SerialWhenJobsIsOne) {
  // jobs=1 must execute in index order on the calling thread — the old
  // serial path.
  std::vector<std::size_t> order;
  for_each_index(
      5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachIndex, ParallelCoversAllIndices) {
  std::mutex mu;
  std::set<std::size_t> seen;
  for_each_index(
      40,
      [&](std::size_t i) {
        std::lock_guard lk{mu};
        seen.insert(i);
      },
      8);
  EXPECT_EQ(seen.size(), 40u);
}

TEST(JobsFromEnv, IsCachedAndAtLeastOne) {
  // The knob is read once per process, so two calls must agree even if the env changes in between.
  const int first = jobs_from_env();
  EXPECT_GE(first, 1);
  ::setenv("WSN_JOBS", "3", 1);
  EXPECT_EQ(jobs_from_env(), first);
  ::unsetenv("WSN_JOBS");
}

TEST(JobsFromEnv, ValidationMatchesTheOtherKnobs) {
  // jobs_from_env is cached, so exercise its parser (env_long on WSN_JOBS)
  // directly: rejects junk, zero, and out-of-range values with a fallback.
  ::setenv("WSN_JOBS", "8", 1);
  EXPECT_EQ(env_long("WSN_JOBS", 2, 1, 4096), 8);
  for (const char* bad : {"0", "-1", "two", "8x", "1000000"}) {
    ::setenv("WSN_JOBS", bad, 1);
    EXPECT_EQ(env_long("WSN_JOBS", 2, 1, 4096), 2) << "WSN_JOBS=" << bad;
  }
  ::unsetenv("WSN_JOBS");
  EXPECT_EQ(env_long("WSN_JOBS", 2, 1, 4096), 2);
}

ExperimentConfig small_config(core::Algorithm alg) {
  ExperimentConfig cfg;
  cfg.field.nodes = 60;
  cfg.algorithm = alg;
  cfg.duration = sim::Time::seconds(30.0);
  return cfg;
}

TEST(ParallelReplicates, DigestIdenticalAcrossJobCounts) {
  // The acceptance bar: WSN_JOBS ∈ {1, 2, 8} produce bit-identical
  // accumulator streams for the same seeds, the per-node energy spread
  // included.
  const ExperimentConfig cfg = small_config(core::Algorithm::kGreedy);
  const AveragedPoint serial = run_replicates(cfg, 6, 11, /*jobs=*/1);
  const AveragedPoint two = run_replicates(cfg, 6, 11, /*jobs=*/2);
  const AveragedPoint eight = run_replicates(cfg, 6, 11, /*jobs=*/8);
  ASSERT_EQ(serial.replicates, 6);
  ASSERT_EQ(two.replicates, 6);
  ASSERT_EQ(eight.replicates, 6);
  ASSERT_EQ(serial.max_node_energy.count(), 6u);
  EXPECT_EQ(digest_of(serial), digest_of(two));
  EXPECT_EQ(digest_of(serial), digest_of(eight));
}

TEST(ParallelReplicates, DigestIdenticalUnderFailuresAndBaseline) {
  // Failure churn exercises the repair path; the opportunistic baseline
  // exercises the other protocol stack. Both must be job-count-invariant.
  ExperimentConfig cfg = small_config(core::Algorithm::kOpportunistic);
  cfg.failures.enabled = true;
  EXPECT_EQ(digest_of(run_replicates(cfg, 4, 3, 1)),
            digest_of(run_replicates(cfg, 4, 3, 4)));
}

TEST(ParallelReplicates, DefaultJobsMatchSerial) {
  // jobs<=0 routes through WSN_JOBS/hardware concurrency; the result must still match the forced-serial path bit for bit.
  const ExperimentConfig cfg = small_config(core::Algorithm::kGreedy);
  EXPECT_EQ(digest_of(run_replicates(cfg, 4, 1, 0)),
            digest_of(run_replicates(cfg, 4, 1, 1)));
}

TEST(ParallelReplicates, DifferentSeedsStillDiverge) {
  // Sanity: the digest discriminates — parallelism must not wash out the
  // seed dependence.
  const ExperimentConfig cfg = small_config(core::Algorithm::kGreedy);
  EXPECT_NE(digest_of(run_replicates(cfg, 4, 1, 4)),
            digest_of(run_replicates(cfg, 4, 100, 4)));
}

}  // namespace
}  // namespace wsn::scenario
