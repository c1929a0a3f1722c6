#include "scenario/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "mac/channel.hpp"
#include "mac/csma_mac.hpp"
#include "mac/tdma_mac.hpp"
#include "net/topology.hpp"
#include "scenario/failure.hpp"
#include "sim/simulator.hpp"
#include "stats/accumulator.hpp"
#include "stats/digest.hpp"
#include "trees/models.hpp"

namespace wsn::scenario {
namespace {

void add_rect(stats::Digest& d, const net::Rect& r) {
  d.add(r.x0);
  d.add(r.y0);
  d.add(r.x1);
  d.add(r.y1);
}

}  // namespace

std::uint64_t config_digest(const ExperimentConfig& config) {
  // Workload-defining fields only: the seed is deliberately excluded (it is
  // a separate trace-header word) and so is the trace spec itself — tracing
  // a run must not change what the run *is*.
  stats::Digest d;
  d.add(config.field.side_m);
  d.add(static_cast<std::uint64_t>(config.field.nodes));
  d.add(config.field.radio_range_m);
  d.add(config.field.carrier_sense_range_m);
  d.add(static_cast<std::uint64_t>(config.algorithm));
  d.add(static_cast<std::uint64_t>(config.mac_type));
  d.add(static_cast<std::uint64_t>(config.num_sources));
  d.add(static_cast<std::uint64_t>(config.num_sinks));
  d.add(static_cast<std::uint64_t>(config.source_placement));
  add_rect(d, config.source_rect);
  add_rect(d, config.sink_rect);
  d.add(static_cast<std::uint64_t>(config.interest_region.has_value()));
  if (config.interest_region.has_value()) add_rect(d, *config.interest_region);
  d.add(static_cast<std::uint64_t>(config.failures.enabled));
  d.add(config.failures.fraction);
  d.add(config.failures.period.as_nanos());
  d.add(static_cast<std::uint64_t>(config.failures.protect_endpoints));
  d.add(config.duration.as_nanos());
  return d.value();
}

RunResult run_experiment(const ExperimentConfig& config) {
  // A workload needs at least one node per endpoint. Reject the config
  // before any field is drawn, with the field that makes it invalid.
  if (config.field.nodes == 0 ||
      config.field.nodes < config.num_sources + config.num_sinks) {
    throw std::invalid_argument{
        "field.nodes (" + std::to_string(config.field.nodes) +
        ") must be at least 1 and at least num_sources + num_sinks (" +
        std::to_string(config.num_sources + config.num_sinks) + ")"};
  }
  validate(config.failures);
  sim::Rng master{config.seed};
  sim::Rng field_rng = master.fork(1);
  sim::Rng placement_rng = master.fork(2);
  sim::Rng failure_rng = master.fork(3);

  const net::GeneratedField field =
      net::generate_connected_topology(config.field, field_rng);
  const net::Topology& topo = field.topology;

  // Tracing: the config's spec wins; an empty one falls back to the
  // environment knobs. Declared before the simulator so the tracer outlives
  // every emission (including any from queue teardown).
  const trace::TraceSpec trace_spec =
      config.trace.enabled() ? config.trace : trace::spec_from_env();
  std::unique_ptr<trace::Tracer> tracer;
  if (trace_spec.enabled()) {
    tracer = std::make_unique<trace::Tracer>(trace::Tracer::Options{
        .path = trace::resolve_trace_path(trace_spec.path, config.seed),
        .ring_capacity = trace_spec.ring_capacity,
        .seed = config.seed,
        .config_digest = config_digest(config),
    });
  }

  sim::Simulator sim;
  if (tracer != nullptr) sim.set_tracer(tracer.get());
  mac::Channel channel{sim, topo, config.phy.propagation};

  std::vector<std::unique_ptr<mac::MacBase>> macs;
  macs.reserve(topo.node_count());
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    if (config.mac_type == MacType::kCsma) {
      macs.push_back(std::make_unique<mac::CsmaMac>(sim, channel, id,
                                                    config.phy, config.energy,
                                                    master.fork(1000 + id)));
    } else {
      macs.push_back(std::make_unique<mac::TdmaMac>(
          sim, channel, id, static_cast<std::uint32_t>(topo.node_count()),
          config.phy, config.tdma, config.energy));
    }
  }

  stats::MetricsCollector collector;
  std::vector<std::unique_ptr<diffusion::DiffusionNode>> nodes;
  nodes.reserve(topo.node_count());
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    nodes.push_back(core::make_diffusion_node(
        config.algorithm, sim, *macs[id], topo.position(id), config.diffusion,
        master.fork(2000 + id), &collector));
  }

  // --- workload placement ---
  RunResult result;
  if (config.source_placement == SourcePlacement::kCorner) {
    auto inst = trees::make_corner_instance(topo, config.num_sources,
                                            config.source_rect,
                                            config.sink_rect, placement_rng);
    result.sources.assign(inst.sources.begin(), inst.sources.end());
    result.sinks.push_back(inst.sink);
  } else {
    auto inst = trees::make_random_sources_instance(topo, config.num_sources,
                                                    placement_rng);
    result.sources.assign(inst.sources.begin(), inst.sources.end());
    // Even with random sources the first sink uses the paper's corner rect.
    auto sink_inst = trees::make_corner_instance(
        topo, 0, config.source_rect, config.sink_rect, placement_rng);
    net::NodeId sink = sink_inst.sink;
    while (std::find(result.sources.begin(), result.sources.end(), sink) !=
           result.sources.end()) {
      sink = static_cast<net::NodeId>(placement_rng.uniform_int(
          0, static_cast<std::int64_t>(topo.node_count()) - 1));
    }
    result.sinks.push_back(sink);
  }
  // Extra sinks (paper §5.4): uniformly scattered, avoiding duplicates.
  while (result.sinks.size() < config.num_sinks) {
    const auto candidate = static_cast<net::NodeId>(placement_rng.uniform_int(
        0, static_cast<std::int64_t>(topo.node_count()) - 1));
    const bool taken =
        std::find(result.sinks.begin(), result.sinks.end(), candidate) !=
            result.sinks.end() ||
        std::find(result.sources.begin(), result.sources.end(), candidate) !=
            result.sources.end();
    if (!taken) result.sinks.push_back(candidate);
  }

  const net::Rect task_region = config.interest_region.value_or(
      net::Rect{0.0, 0.0, config.field.side_m, config.field.side_m});
  for (net::NodeId s : result.sources) nodes[s]->set_detecting(true);
  for (net::NodeId k : result.sinks) nodes[k]->make_sink(task_region);
  for (auto& n : nodes) n->start();

  // --- failure process ---
  std::vector<char> protected_nodes(topo.node_count(), 0);
  for (net::NodeId s : result.sources) protected_nodes[s] = 1;
  for (net::NodeId k : result.sinks) protected_nodes[k] = 1;
  std::vector<mac::MacBase*> mac_ptrs;
  for (auto& m : macs) mac_ptrs.push_back(m.get());
  FailureProcess failures{sim, mac_ptrs, protected_nodes, config.failures,
                          failure_rng};

  // --- run ---
  sim.run_until(config.duration);

  // --- harvest ---
  result.events_dispatched = sim.events_dispatched();
  const sim::RecyclingArena::Stats pool = sim.arena().stats();
  result.pool_acquires = pool.total_acquires;
  result.pool_slots_created = pool.blocks_created;
  result.pool_slots_live = pool.blocks_live;
  result.pool_bytes_reserved = pool.bytes_reserved;
  double total_energy = 0.0;
  double total_active = 0.0;
  stats::Accumulator per_node_energy;
  result.node_positions = topo.positions();
  for (auto& m : macs) {
    const double j = m->energy_joules(sim.now());
    result.node_energy_joules.push_back(j);
    per_node_energy.add(j);
    total_energy += j;
    total_active += m->active_energy_joules(sim.now());
    for (std::size_t s = 0; s < mac::kRadioStateCount; ++s) {
      const auto state = static_cast<mac::RadioState>(s);
      WSN_TRACE_EMIT(&sim, trace::RecordKind::kEnergyTotal, m->id(),
                     trace::kNoPeer, s,
                     m->meter().residence_ns(state, sim.now()));
    }
    const auto& st = m->stats();
    result.frames_sent += st.frames_sent + st.acks_sent;
    result.bytes_sent += st.bytes_sent;
    result.arrivals_corrupted += st.arrivals_corrupted;
    result.drops += st.drops_queue_full + st.drops_retry_exhausted;
  }
  for (auto& n : nodes) {
    const auto& p = n->stats();
    result.protocol.interests_sent += p.interests_sent;
    result.protocol.exploratory_sent += p.exploratory_sent;
    result.protocol.data_sent += p.data_sent;
    result.protocol.icm_sent += p.icm_sent;
    result.protocol.reinforcements_sent += p.reinforcements_sent;
    result.protocol.negatives_sent += p.negatives_sent;
    result.protocol.repairs_attempted += p.repairs_attempted;
    result.protocol.items_dropped_no_gradient += p.items_dropped_no_gradient;
    result.protocol.aggregates_received += p.aggregates_received;
    for (net::NodeId nb : n->data_gradient_neighbors()) {
      result.tree_edges.emplace_back(n->id(), nb);
    }
  }
  if (tracer != nullptr) {
    result.trace_counters = tracer->counters();
    tracer->flush();
  }
  result.field_connected = field.connected;
  result.field_attempts = field.attempts;
  result.average_degree = topo.average_degree();
  result.energy_max_node_joules = per_node_energy.max();
  result.energy_mean_node_joules = per_node_energy.mean();
  result.energy_stddev_node_joules = per_node_energy.stddev();
  result.metrics = collector.finalize(total_energy, total_active,
                                      topo.node_count(), result.sinks.size());
  return result;
}

}  // namespace wsn::scenario
