#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {
namespace {

using wsn::scenario::ExperimentConfig;

// dense_fig5: the densest point of the Fig. 5 sweep (bench/fig5_density
// runs it for 200 simulated seconds). Runs cycle through eight fields so no
// single field sets the paper metrics.
constexpr std::size_t kDenseNodes = 350;
constexpr std::size_t kDenseFields = 8;
constexpr double kDenseSimSeconds = 200.0;
constexpr std::size_t kDenseSetups = 24;

// field_10k: dense_fig5's node density over a field 29x larger. Short runs
// give the fastest-iteration timing many samples per loop.
constexpr std::size_t kFieldNodes = 10'000;
constexpr std::size_t kFieldFields = 6;
constexpr double kFieldSimSeconds = 15.0;
constexpr std::size_t kFieldSetups = 8;

// sweep_failures: the Fig. 6 setting at 200 nodes. 100 runs leave ten runs
// beyond the per-run p90; every run is also a set-up sample. 90 simulated
// seconds span two failure rotations and keep a batch to a few seconds.
constexpr std::size_t kSweepNodes = 200;
constexpr std::size_t kSweepRuns = 100;
constexpr double kSweepSimSeconds = 90.0;
constexpr std::size_t kSweepTraced = 8;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Fills a workload's runs and set-up samples from `make(i)`, the config of
// run i before its seed is set.
template <typename MakeConfig>
void fill(Workload& w, std::uint64_t seed, std::size_t runs,
          std::size_t setups, MakeConfig make) {
  for (std::size_t i = 0; i < std::max(runs, setups); ++i) {
    ExperimentConfig cfg = make(i);
    cfg.seed = run_seed(seed, i);
    if (i < runs) w.configs.push_back(cfg);
    cfg.duration = wsn::sim::Time::zero();
    if (i < setups) w.setup_configs.push_back(cfg);
  }
}

ExperimentConfig base_config(std::size_t nodes, double sim_seconds) {
  ExperimentConfig cfg;
  cfg.field.nodes = nodes;
  cfg.duration = wsn::sim::Time::seconds(sim_seconds);
  cfg.algorithm = wsn::core::Algorithm::kGreedy;
  cfg.mac_type = wsn::scenario::MacType::kCsma;
  return cfg;
}

Workload dense_fig5(std::uint64_t seed) {
  Workload w;
  w.name = "dense_fig5";
  w.why = "350 nodes in 200x200 m, greedy, no failures: channel fan-out, "
         "CSMA contention and the greedy ICM/set-cover path carry the "
         "load; set-up is a tiny share";
  fill(w, seed, kDenseFields, kDenseSetups, [](std::size_t) {
    return base_config(kDenseNodes, kDenseSimSeconds);
  });
  w.traced = {0};
  return w;
}

Workload field_10k(std::uint64_t seed) {
  Workload w;
  w.name = "field_10k";
  w.why = "10000 nodes at dense_fig5's density: field generation, grid "
         "topology, 10k MAC/node constructions and out-of-cache working "
         "sets dominate; set-up is a large share";
  // Same nodes per square metre as 350 nodes in 200 m x 200 m.
  const double side =
      200.0 * std::sqrt(static_cast<double>(kFieldNodes) / kDenseNodes);
  fill(w, seed, kFieldFields, kFieldSetups, [side](std::size_t) {
    ExperimentConfig cfg = base_config(kFieldNodes, kFieldSimSeconds);
    cfg.field.side_m = side;
    cfg.source_rect = {0.0, 0.0, 80.0, 80.0};
    cfg.sink_rect = {side - 36.0, side - 36.0, side, side};
    return cfg;
  });
  w.traced = {0};
  return w;
}

Workload sweep_failures(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_failures";
  w.why = "100 short 200-node runs, 20% of nodes rotated down every 30 s, "
         "opportunistic and greedy alternating, on min(4, nproc) "
         "workers: repair paths and per-run set-up";
  w.batch = true;
  w.jobs = bench_jobs();

  fill(w, seed, kSweepRuns, kSweepRuns, [](std::size_t i) {
    ExperimentConfig cfg = base_config(kSweepNodes, kSweepSimSeconds);
    cfg.algorithm = i % 2 == 0 ? wsn::core::Algorithm::kOpportunistic
                               : wsn::core::Algorithm::kGreedy;
    cfg.failures.enabled = true;
    cfg.failures.fraction = 0.2;
    cfg.failures.period = wsn::sim::Time::seconds(30.0);
    return cfg;
  });
  for (std::size_t i = 0; i < kSweepTraced; ++i) w.traced.push_back(i);
  return w;
}

}  // namespace

std::uint64_t run_seed(std::uint64_t workload_seed, std::size_t index) {
  return splitmix64(workload_seed +
                    (static_cast<std::uint64_t>(index) + 1) *
                        0x9E3779B97F4A7C15ULL);
}

int bench_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1U, 4U));
}

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names{
      "dense_fig5", "field_10k", "sweep_failures"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t workload_seed) {
  if (name == "dense_fig5") return dense_fig5(workload_seed);
  if (name == "field_10k") return field_10k(workload_seed);
  if (name == "sweep_failures") return sweep_failures(workload_seed);
  return std::nullopt;
}

}  // namespace perfbench
