// Renders the final aggregation trees of both instantiations as ASCII art
// and as Graphviz DOT, making the paper's Figure 1 (late vs early
// aggregation) visible on a real simulated field.
//
//   $ ./tree_visualizer [nodes] [seed] [--dot]
#include <cstdio>
#include <cstring>
#include <vector>

#include "cli.hpp"
#include "scenario/experiment.hpp"

namespace {

using namespace wsn;

void render_ascii(const scenario::RunResult& res,
                  const scenario::ExperimentConfig& cfg) {
  // 40x20 character canvas over the 200x200 m field.
  constexpr int W = 50, H = 22;
  std::vector<std::string> canvas(H, std::string(W, ' '));

  const auto& pts = res.node_positions;

  auto plot = [&](net::Vec2 p, char c) {
    const int x = std::min(W - 1, static_cast<int>(p.x / cfg.field.side_m * W));
    const int y =
        std::min(H - 1, static_cast<int>((1.0 - p.y / cfg.field.side_m) * H));
    char& cell = canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)];
    // Don't let plain markers overwrite sources/sinks.
    if (cell == 'S' || cell == '#') return;
    cell = c;
  };

  for (const auto& [from, to] : res.tree_edges) {
    // Draw tree links as interpolated dots.
    const auto a = pts[from];
    const auto b = pts[to];
    for (int k = 0; k <= 6; ++k) {
      const double t = k / 6.0;
      plot({a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t}, '.');
    }
  }
  for (const auto& [from, to] : res.tree_edges) plot(pts[from], 'o');
  for (auto s : res.sources) plot(pts[s], 'S');
  for (auto k : res.sinks) plot(pts[k], '#');

  for (const auto& row : canvas) std::printf("|%s|\n", row.c_str());
}

void render_dot(const scenario::RunResult& res, const char* name) {
  std::printf("digraph %s {\n  rankdir=LR;\n", name);
  for (auto s : res.sources) {
    std::printf("  n%u [shape=doublecircle,label=\"S%u\"];\n", s, s);
  }
  for (auto k : res.sinks) {
    std::printf("  n%u [shape=box,label=\"sink %u\"];\n", k, k);
  }
  for (const auto& [from, to] : res.tree_edges) {
    std::printf("  n%u -> n%u;\n", from, to);
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = static_cast<std::size_t>(
      cli::long_arg(argc, argv, 1, "nodes", 200, 1, cli::kMaxCount));
  cfg.seed = cli::seed_arg(argc, argv, 2, 1);
  cfg.duration = sim::Time::seconds(120.0);
  const bool dot = argc > 3 && std::strcmp(argv[3], "--dot") == 0;
  if (argc > 4 || (argc > 3 && !dot)) {
    std::fprintf(stderr, "usage: %s [nodes] [seed] [--dot]\n", argv[0]);
    return 2;
  }

  for (auto alg : {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    cfg.algorithm = alg;
    const auto res = cli::run_or_exit(cfg);
    if (dot) {
      render_dot(res, std::string(core::to_string(alg)).c_str());
      continue;
    }
    std::printf("--- %s tree ---  (S=source, #=sink, o=relay, .=link)\n",
                std::string(core::to_string(alg)).c_str());
    render_ascii(res, cfg);
    std::printf("tree edges: %zu   frames: %llu   delivery: %.3f\n\n",
                res.tree_edges.size(),
                static_cast<unsigned long long>(res.frames_sent),
                res.metrics.delivery_ratio);
  }
  std::printf("The greedy tree should show the corner sources sharing a "
              "single trunk toward the sink (early aggregation, paper "
              "Figure 1b); the opportunistic tree keeps more separate "
              "paths (late aggregation, Figure 1a).\n");
  return 0;
}
