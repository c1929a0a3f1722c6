// Experiment configuration and runner — the library's top-level API.
//
// One `ExperimentConfig` describes one simulated sensor field + workload;
// `run_experiment` builds the full stack (field → channel → MACs →
// diffusion nodes), runs it, and returns the paper's metrics plus traffic
// accounting and the final aggregation tree for inspection.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "diffusion/types.hpp"
#include "mac/params.hpp"
#include "mac/tdma_mac.hpp"
#include "net/field.hpp"
#include "scenario/failure.hpp"
#include "stats/metrics.hpp"
#include "trace/trace.hpp"

namespace wsn::scenario {

/// Where the workload endpoints sit (paper §5.1, §5.4).
enum class SourcePlacement {
  kCorner,  ///< random nodes inside the 80×80 m bottom-left corner
  kRandom,  ///< random nodes anywhere in the field
};

/// Which link layer the nodes run (paper §5.1 uses a modified 802.11;
/// §4.2 sketches the TDMA alternative).
enum class MacType { kCsma, kTdma };

struct ExperimentConfig {
  net::FieldSpec field;  ///< 200×200 m, radio range 40 m by default
  core::Algorithm algorithm = core::Algorithm::kGreedy;
  MacType mac_type = MacType::kCsma;
  mac::TdmaParams tdma;  ///< TDMA's own choices; the radio is `phy`

  std::size_t num_sources = 5;
  std::size_t num_sinks = 1;
  SourcePlacement source_placement = SourcePlacement::kCorner;
  /// Source corner (paper: 80×80 m bottom-left).
  net::Rect source_rect{0.0, 0.0, 80.0, 80.0};
  /// First-sink corner (paper: 36×36 m top-right); extra sinks are uniform.
  net::Rect sink_rect{164.0, 164.0, 200.0, 200.0};

  /// Geographic scope of the sensing task carried by interests. Defaults
  /// to the whole field (the paper's setting); narrowing it to the source
  /// corner enables the §2 directional-interest optimisation to pay off.
  std::optional<net::Rect> interest_region;

  diffusion::DiffusionParams diffusion;
  mac::PhyParams phy;
  mac::EnergyParams energy;
  FailureModel failures;

  sim::Time duration = sim::Time::seconds(400.0);
  std::uint64_t seed = 1;

  /// Structured event tracing (src/trace). Disabled by default; when left
  /// disabled here, run_experiment falls back to the WSN_TRACE /
  /// WSN_TRACE_RING environment knobs so any experiment binary can be
  /// traced without a config change.
  trace::TraceSpec trace;
};

/// Digest of every config field except `seed` and `trace`, written into
/// trace headers so `trace_tool diff` can refuse to compare runs of
/// different setups. Two configs with equal digests describe the same
/// experiment.
[[nodiscard]] std::uint64_t config_digest(const ExperimentConfig& config);

/// Throws std::invalid_argument with one message naming every offending
/// field of a config that cannot run: no source or no sink, fewer nodes
/// than sources + sinks, a non-finite or non-positive size, range, rate or
/// re-arming period, a negative duration, an endpoint rect that is inverted
/// or leaves the field, or an invalid enabled failure model (see
/// validate(const FailureModel&)).
void validate(const ExperimentConfig& config);

/// Everything a run produces.
struct RunResult {
  stats::RunMetrics metrics;

  // Shape of the field actually used.
  bool field_connected = false;  ///< false: gave up after kMaxFieldAttempts
  int field_attempts = 0;        ///< fields drawn to realise this one
  double average_degree = 0.0;
  std::vector<net::NodeId> sources;
  std::vector<net::NodeId> sinks;

  // Per-node energy spread (paper §3: aggregated paths concentrate
  // traffic, which matters for network lifetime).
  std::vector<double> node_energy_joules;  ///< indexed by NodeId
  std::vector<net::Vec2> node_positions;   ///< the generated field
  double energy_max_node_joules = 0.0;     ///< hottest node
  double energy_mean_node_joules = 0.0;
  double energy_stddev_node_joules = 0.0;

  // Traffic accounting summed over nodes.
  std::uint64_t events_dispatched = 0;  ///< engine events fired this run
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t arrivals_corrupted = 0;
  std::uint64_t drops = 0;
  diffusion::ProtocolStats protocol;

  // Message pool occupancy at the end of the run: slots recycle when
  // acquisitions far outnumber the slots created, and a message still
  // held at harvest shows in the live count.
  std::uint64_t pool_acquires = 0;       ///< pooled allocations, total
  std::uint64_t pool_slots_created = 0;  ///< distinct heap blocks ever made
  std::uint64_t pool_slots_live = 0;     ///< checked out at harvest time

  // Final data-gradient tree: one (node, downstream-neighbour) edge per
  // live data gradient at the end of the run.
  std::vector<std::pair<net::NodeId, net::NodeId>> tree_edges;

  // Per-kind trace record tallies; all zero unless the run was traced.
  trace::CounterTable trace_counters;
};

/// Builds, runs and tears down one experiment. Calls validate(config)
/// before any field is drawn.
RunResult run_experiment(const ExperimentConfig& config);

}  // namespace wsn::scenario
