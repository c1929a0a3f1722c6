// Microbenchmarks: weighted set-cover solvers (E8 — §4.2 quality/cost).
#include <benchmark/benchmark.h>

#include "agg/set_cover.hpp"
#include "sim/random.hpp"

namespace {

using wsn::agg::WeightedSet;

std::vector<WeightedSet> random_instance(std::uint32_t universe,
                                         std::size_t sets, double density,
                                         std::uint64_t seed) {
  wsn::sim::Rng rng{seed};
  std::vector<WeightedSet> family(sets);
  for (auto& s : family) {
    for (std::uint32_t e = 0; e < universe; ++e) {
      if (rng.chance(density)) s.elements.push_back(e);
    }
    s.weight = rng.uniform(0.5, 10.0);
  }
  WeightedSet all;
  for (std::uint32_t e = 0; e < universe; ++e) all.elements.push_back(e);
  all.weight = rng.uniform(5.0, 25.0);
  family.push_back(all);
  return family;
}

void BM_GreedyCover(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(state.range(0));
  const auto sets = static_cast<std::size_t>(state.range(1));
  const auto family = random_instance(universe, sets, 0.4, 42);
  wsn::agg::GreedyCoverWorkspace ws;
  for (auto _ : state) {
    const auto& r = wsn::agg::greedy_weighted_set_cover(ws, family, universe);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_GreedyCover)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Args({64, 32})
    ->Args({14, 14});  // the paper's max fan-in (14 sources)

void BM_ExactCover(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(state.range(0));
  const auto family = random_instance(universe, 10, 0.4, 42);
  for (auto _ : state) {
    auto r = wsn::agg::exact_weighted_set_cover(family, universe);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExactCover)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_SourceTransform(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(state.range(0));
  const auto family = random_instance(universe, 16, 0.4, 42);
  std::vector<std::vector<std::uint32_t>> sources;
  for (const auto& s : family) {
    std::vector<std::uint32_t> src;
    for (auto e : s.elements) src.push_back(e % 5);
    sources.push_back(std::move(src));
  }
  for (auto _ : state) {
    auto t = wsn::agg::transform_to_sources(family, sources);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SourceTransform)->Arg(16)->Arg(64);

// Quality report: greedy weight / exact weight over random instances,
// printed as a counter so the ln(d)+1 bound can be eyeballed.
void BM_GreedyQuality(benchmark::State& state) {
  double worst = 1.0;
  double sum = 0.0;
  int n = 0;
  wsn::agg::GreedyCoverWorkspace ws;
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const auto family = random_instance(12, 10, 0.35, seed);
      const auto& g = wsn::agg::greedy_weighted_set_cover(ws, family, 12);
      const auto e = wsn::agg::exact_weighted_set_cover(family, 12);
      if (e.total_weight > 0) {
        const double ratio = g.total_weight / e.total_weight;
        worst = std::max(worst, ratio);
        sum += ratio;
        ++n;
      }
    }
  }
  state.counters["worst_ratio"] = worst;
  state.counters["mean_ratio"] = n > 0 ? sum / n : 0.0;
}
BENCHMARK(BM_GreedyQuality)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
