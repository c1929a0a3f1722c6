// Microbenchmarks: tree constructions on paper-scale unit-disk graphs.
#include <benchmark/benchmark.h>

#include "net/field.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "trees/aggregation_trees.hpp"
#include "trees/graph.hpp"
#include "trees/models.hpp"

namespace {

using namespace wsn;

struct Setup {
  trees::Graph graph;
  trees::AbstractInstance inst;
};

Setup make_setup(std::size_t nodes, std::size_t sources) {
  sim::Rng rng{7};
  net::FieldSpec spec;
  spec.nodes = nodes;
  const net::Topology topo =
      net::generate_connected_topology(spec, rng).topology;
  Setup s{trees::graph_from_topology(topo),
          trees::make_corner_instance(topo, sources, {0, 0, 80, 80},
                                      {164, 164, 200, 200}, rng)};
  return s;
}

void BM_Dijkstra(benchmark::State& state) {
  const auto s = make_setup(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trees::dijkstra(s.graph, s.inst.sink));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(50)->Arg(150)->Arg(350);

void BM_ShortestPathTree(benchmark::State& state) {
  const auto s = make_setup(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trees::shortest_path_tree(s.graph, s.inst.sink, s.inst.sources));
  }
}
BENCHMARK(BM_ShortestPathTree)->Arg(50)->Arg(350);

void BM_GreedyIncrementalTree(benchmark::State& state) {
  const auto s = make_setup(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trees::greedy_incremental_tree(s.graph, s.inst.sink, s.inst.sources));
  }
}
BENCHMARK(BM_GreedyIncrementalTree)->Arg(50)->Arg(350);

void BM_SteinerExact(benchmark::State& state) {
  const auto s = make_setup(100, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trees::steiner_tree_exact(s.graph, s.inst.sink, s.inst.sources));
  }
}
BENCHMARK(BM_SteinerExact)->Arg(3)->Arg(5)->Arg(7);

}  // namespace

BENCHMARK_MAIN();
