// Unit + property tests for aggregation functions and weighted set cover.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "agg/aggregation_fn.hpp"
#include "agg/set_cover.hpp"
#include "diffusion/types.hpp"
#include "sim/random.hpp"

namespace wsn::agg {
namespace {

TEST(AggregateSize, PerfectIsConstantSize) {
  EXPECT_EQ(kPerfect.bytes(1), 64u);
  EXPECT_EQ(kPerfect.bytes(14), 64u);
  EXPECT_EQ(diffusion::DiffusionParams{}.aggregation, kPerfect);
}

TEST(AggregateSize, LinearMatchesPaperFormula) {
  // Paper §5.4: z(S) = d·28 + 36.
  EXPECT_EQ(kLinear.bytes(1), 64u);
  EXPECT_EQ(kLinear.bytes(5), 5u * 28 + 36);
  EXPECT_EQ(kLinear.bytes(14), 14u * 28 + 36);
}

TEST(AggregateSize, PackingSavesOnlyHeaders) {
  // Two packed events: one 36B header instead of two.
  EXPECT_EQ(kPacking.bytes(2), 2u * 64 + 36);
  EXPECT_LT(kPacking.bytes(2), 2u * (64 + 36));
}

TEST(AggregateSize, TimestampSharesRedundantFields) {
  // A 28-byte first item, 24 bytes for each later one, one 36-byte header.
  EXPECT_EQ(kTimestamp.bytes(1), 36u + 28);
  EXPECT_EQ(kTimestamp.bytes(3), 36u + 28 + 2 * 24);
  EXPECT_LT(kTimestamp.bytes(3), kLinear.bytes(3));
}

/// The greedy cover on a fresh workspace.
SetCoverResult greedy_cover(std::span<const WeightedSet> family,
                            std::uint32_t universe_size) {
  GreedyCoverWorkspace ws;
  return greedy_weighted_set_cover(ws, family, universe_size);
}

// --- the worked example from paper §4.2 / Figure 4(a) -------------------
// S1={a1,a2,b1} w=5, S2={b1,b2} w=6, S3={a2,b2} w=7 over {a1,a2,b1,b2}.
// Greedy picks S1 (ratio 5/3), then S2 (6/1); cover weight 11, and the
// outgoing aggregate costs 11 + 1 = 12.
std::vector<WeightedSet> figure4_event_sets() {
  return {
      {{0, 1, 2}, 5.0},  // a1,a2,b1
      {{2, 3}, 6.0},     // b1,b2
      {{1, 3}, 7.0},     // a2,b2
  };
}

TEST(SetCover, PaperFigure4EventExample) {
  const auto family = figure4_event_sets();
  const auto r = greedy_cover(family, 4);
  ASSERT_TRUE(r.covered);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(r.total_weight, 11.0);
}

TEST(SetCover, PaperFigure4SourceTransform) {
  // §4.3: the same aggregates transformed to sources A,B:
  // S1*={A,B} w=5·2/3, S2*={B} w=6·1/2, S3*={A,B} w=7·2/2.
  const auto family = figure4_event_sets();
  const std::vector<std::vector<std::uint32_t>> sources = {
      {0, 0, 1},  // a1,a2 from A; b1 from B
      {1, 1},     // b1,b2 from B
      {0, 1},     // a2 from A; b2 from B
  };
  const auto transformed = transform_to_sources(family, sources);
  ASSERT_EQ(transformed.size(), 3u);
  EXPECT_EQ(transformed[0].elements, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_NEAR(transformed[0].weight, 10.0 / 3.0, 1e-12);
  EXPECT_EQ(transformed[1].elements, (std::vector<std::uint32_t>{1}));
  EXPECT_NEAR(transformed[1].weight, 3.0, 1e-12);
  EXPECT_EQ(transformed[2].elements, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_NEAR(transformed[2].weight, 7.0, 1e-12);

  // Cost ratios are preserved: r1 = 5/3, r2 = 3, r3 = 7/2 (paper values).
  EXPECT_NEAR(transformed[0].weight / 2.0, 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(transformed[1].weight / 1.0, 3.0, 1e-12);
  EXPECT_NEAR(transformed[2].weight / 2.0, 3.5, 1e-12);

  // Greedy over the transformed instance selects only S1* → L negatively
  // reinforces H (S2) and K (S3), exactly the paper's conclusion.
  const auto r = greedy_cover(transformed, 2);
  ASSERT_TRUE(r.covered);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{0}));
}

TEST(SetCover, RedundantSubsetRemoved) {
  // Greedy picks {0,1} then {2,3} then... make a set that becomes redundant:
  // A={0,1} w=1, B={2,3} w=1, C={0,1,2,3} w=2.1.
  // Greedy ratios: A=0.5, B=0.5, C=0.525 → picks A, B; C never chosen.
  // Reverse: C first if cheap — make C w=1.9 (ratio 0.475): picks C, done.
  std::vector<WeightedSet> family{{{0, 1}, 1.0}, {{2, 3}, 1.0}, {{0, 1, 2, 3}, 1.9}};
  auto r = greedy_cover(family, 4);
  ASSERT_TRUE(r.covered);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{2}));
  EXPECT_DOUBLE_EQ(r.total_weight, 1.9);

  // Force redundancy: D={0} w=0.1 is picked first (ratio 0.1). Greedy then
  // covers the rest with B (ratio 0.5) and A (ratio 1 for its last
  // element), at which point D ⊆ A is redundant and must be dropped.
  family.push_back({{0}, 0.1});
  r = greedy_cover(family, 4);
  ASSERT_TRUE(r.covered);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(r.total_weight, 2.0);
}

TEST(SetCover, EmptyUniverseIsTriviallyCovered) {
  const auto r = greedy_cover({}, 0);
  EXPECT_TRUE(r.covered);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0.0);
}

TEST(SetCover, UncoverableReported) {
  std::vector<WeightedSet> family{{{0}, 1.0}};
  const auto r = greedy_cover(family, 2);
  EXPECT_FALSE(r.covered);
}

TEST(SetCover, ExactSolverOnKnownInstance) {
  // Exact must beat greedy here: universe {0,1,2}, greedy takes the big
  // cheap-ratio set then pays for the rest.
  std::vector<WeightedSet> family{
      {{0, 1}, 2.0}, {{1, 2}, 2.0}, {{0, 2}, 2.0}, {{0, 1, 2}, 3.5}};
  const auto exact = exact_weighted_set_cover(family, 3);
  ASSERT_TRUE(exact.covered);
  EXPECT_DOUBLE_EQ(exact.total_weight, 3.5);
  EXPECT_EQ(exact.chosen, (std::vector<std::size_t>{3}));
}

TEST(SetCover, ExactUncoverable) {
  std::vector<WeightedSet> family{{{0}, 1.0}};
  EXPECT_FALSE(exact_weighted_set_cover(family, 3).covered);
}

TEST(SetCover, TransformHandlesEmptySets) {
  std::vector<WeightedSet> family{{{}, 4.0}};
  std::vector<std::vector<std::uint32_t>> sources{{}};
  const auto t = transform_to_sources(family, sources);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t[0].elements.empty());
  EXPECT_DOUBLE_EQ(t[0].weight, 4.0);
}

/// Random instance over [0, m) with a catch-all set, so it is coverable.
std::vector<WeightedSet> random_family(sim::Rng& rng, std::uint32_t m,
                                       std::size_t n_sets) {
  std::vector<WeightedSet> family(n_sets);
  for (auto& s : family) {
    for (std::uint32_t e = 0; e < m; ++e) {
      if (rng.chance(0.45)) s.elements.push_back(e);
    }
    s.weight = rng.uniform(0.5, 10.0);
  }
  WeightedSet all;
  for (std::uint32_t e = 0; e < m; ++e) all.elements.push_back(e);
  all.weight = rng.uniform(5.0, 20.0);
  family.push_back(all);
  return family;
}

// One workspace carried across instances of every shape above — larger
// and smaller universes and families, covered and not — must give each
// instance the cover a fresh workspace gives it.
TEST(SetCover, ReusedWorkspaceMatchesFresh) {
  std::vector<std::pair<std::vector<WeightedSet>, std::uint32_t>> cases;
  sim::Rng rng{7};
  cases.emplace_back(random_family(rng, 130, 20), 130);  // three words
  cases.emplace_back(figure4_event_sets(), 4);
  cases.emplace_back(
      transform_to_sources(figure4_event_sets(),
                           std::vector<std::vector<std::uint32_t>>{
                               {0, 0, 1}, {1, 1}, {0, 1}}),
      2);
  cases.emplace_back(
      std::vector<WeightedSet>{
          {{0, 1}, 1.0}, {{2, 3}, 1.0}, {{0, 1, 2, 3}, 1.9}, {{0}, 0.1}},
      4);
  cases.emplace_back(std::vector<WeightedSet>{}, 0);
  cases.emplace_back(std::vector<WeightedSet>{{{0}, 1.0}}, 2);
  cases.emplace_back(random_family(rng, 70, 9), 70);
  for (int i = 0; i < 20; ++i) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 10));
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    cases.emplace_back(random_family(rng, m, n), m);
  }

  GreedyCoverWorkspace reused;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "pass " << pass << ", case " << i);
      const auto& [family, m] = cases[i];
      const SetCoverResult fresh = greedy_cover(family, m);
      const SetCoverResult& again =
          greedy_weighted_set_cover(reused, family, m);
      EXPECT_EQ(again.covered, fresh.covered);
      EXPECT_EQ(again.chosen, fresh.chosen);
      EXPECT_EQ(again.total_weight, fresh.total_weight);
    }
  }
}

// Property: on random instances, greedy covers, never beats exact, and
// stays within the ln(d)+1 approximation bound.
class SetCoverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverProperty, GreedyVsExact) {
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(2, 10));
    const auto n_sets = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const std::vector<WeightedSet> family = random_family(rng, m, n_sets);
    std::size_t max_set = 1;
    for (const auto& s : family) max_set = std::max(max_set, s.elements.size());

    const auto greedy = greedy_cover(family, m);
    const auto exact = exact_weighted_set_cover(family, m);
    ASSERT_TRUE(greedy.covered);
    ASSERT_TRUE(exact.covered);
    EXPECT_GE(greedy.total_weight, exact.total_weight - 1e-9);
    const double bound = std::log(static_cast<double>(max_set)) + 1.0;
    EXPECT_LE(greedy.total_weight, exact.total_weight * bound + 1e-9)
        << "trial " << trial;

    // The chosen family must actually cover the universe.
    std::vector<char> covered(m, 0);
    for (auto idx : greedy.chosen) {
      for (auto e : family[idx].elements) covered[e] = 1;
    }
    for (std::uint32_t e = 0; e < m; ++e) EXPECT_TRUE(covered[e]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace wsn::agg
