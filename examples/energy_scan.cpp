// Residual-energy scans with outline aggregation — the paper's §3 example
// of *lossy* aggregation (after eScan, Zhao/Govindan/Estrin 2001).
//
// Runs a tracking workload long enough to wear the network unevenly, then
// builds the residual-energy map two ways:
//   * full scan: every node reports (position, residual) individually;
//   * outline:   topologically adjacent nodes with similar residuals are
//                represented by one aggregate (here: grid cells carrying a
//                min/max residual band — the bounding-polygon idea on a
//                grid), trading accuracy for message size.
//
//   $ ./energy_scan [nodes] [seed]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cli.hpp"
#include "scenario/experiment.hpp"

namespace {

struct Cell {
  double min_residual = 1e18;
  double max_residual = -1e18;
  int count = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = static_cast<std::size_t>(
      cli::long_arg(argc, argv, 1, "nodes", 200, 1, cli::kMaxCount));
  cfg.seed = cli::seed_arg(argc, argv, 2, 1);
  cfg.algorithm = core::Algorithm::kGreedy;
  cfg.duration = sim::Time::seconds(200.0);

  std::printf("Wearing the network: %zu nodes, greedy aggregation, %.0f s\n",
              cfg.field.nodes, cfg.duration.as_seconds());
  const auto res = cli::run_or_exit(cfg);

  // Residual energy per node, from a 50 J starting budget.
  constexpr double kBudget = 50.0;
  const std::size_t n = res.node_energy_joules.size();
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) {
    residual[i] = kBudget - res.node_energy_joules[i];
  }

  // --- outline aggregation: 8x8 grid of 25 m cells ---
  constexpr int kGrid = 8;
  const double cell_m = cfg.field.side_m / kGrid;
  std::vector<Cell> cells(kGrid * kGrid);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = res.node_positions[i];
    const int cx = std::min(kGrid - 1, static_cast<int>(p.x / cell_m));
    const int cy = std::min(kGrid - 1, static_cast<int>(p.y / cell_m));
    Cell& c = cells[static_cast<std::size_t>(cy * kGrid + cx)];
    c.min_residual = std::min(c.min_residual, residual[i]);
    c.max_residual = std::max(c.max_residual, residual[i]);
    ++c.count;
  }

  // Heat map of the *minimum* residual per cell (the number an operator
  // cares about: where will the first hole appear?).
  const double lo = *std::min_element(residual.begin(), residual.end());
  const double hi = *std::max_element(residual.begin(), residual.end());
  std::printf("\nResidual-energy outline (min per 25 m cell; # = most "
              "drained, . = freshest, blank = empty):\n");
  std::printf("field range: %.2f .. %.2f J residual\n", lo, hi);
  const char shades[] = "#@*+-. ";
  for (int cy = kGrid - 1; cy >= 0; --cy) {
    std::printf("  |");
    for (int cx = 0; cx < kGrid; ++cx) {
      const Cell& c = cells[static_cast<std::size_t>(cy * kGrid + cx)];
      if (c.count == 0) {
        std::printf("  ");
        continue;
      }
      const double t = (c.min_residual - lo) / (hi - lo + 1e-12);
      const int idx = std::min(5, static_cast<int>(t * 6.0));
      std::printf("%c ", shades[idx]);
    }
    std::printf("|\n");
  }

  // --- lossless vs outline report sizes and the accuracy given up ---
  const std::size_t full_bytes = n * 12;  // (x, y, residual) per node
  std::size_t used_cells = 0;
  double worst_band = 0.0;
  for (const Cell& c : cells) {
    if (c.count == 0) continue;
    ++used_cells;
    worst_band = std::max(worst_band, c.max_residual - c.min_residual);
  }
  const std::size_t outline_bytes = used_cells * 10;  // cell id + band
  std::printf("\nfull scan: %zu B   outline: %zu B   compression: %.1fx\n",
              full_bytes, outline_bytes,
              static_cast<double>(full_bytes) /
                  static_cast<double>(outline_bytes));
  std::printf("accuracy given up: widest in-cell residual band = %.3f J "
              "(%.1f%% of the field's spread)\n",
              worst_band, 100.0 * worst_band / (hi - lo + 1e-12));
  std::printf("\nThe drained streak should trace the greedy trunk between "
              "the source corner (bottom-left) and the sink (top-right).\n");
  return 0;
}
