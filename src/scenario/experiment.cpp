#include "scenario/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "net/topology.hpp"
#include "scenario/failure.hpp"
#include "scenario/network.hpp"
#include "sim/simulator.hpp"
#include "stats/accumulator.hpp"
#include "stats/digest.hpp"
#include "trees/models.hpp"

namespace wsn::scenario {
namespace {

void hash(stats::Digest& d, double x) { d.add(x); }
void hash(stats::Digest& d, sim::Time t) { d.add(t.as_nanos()); }
void hash(stats::Digest& d, const net::Rect& r) {
  const auto& [x0, y0, x1, y1] = r;
  for (double x : {x0, y0, x1, y1}) d.add(x);
}
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
void hash(stats::Digest& d, T x) {
  d.add(static_cast<std::uint64_t>(x));
}
template <class... Ts>
void hash_all(stats::Digest& d, const Ts&... xs) {
  (hash(d, xs), ...);
}

// Collects every violated requirement of a config into one message. A
// problem's text is built only when its check fails.
class Problems {
 public:
  void add(const std::string& problem) {
    if (!text_.empty()) text_ += "; ";
    text_ += problem;
  }
  void require(bool ok, const char* field, const char* rule) {
    if (!ok) add(std::string{field} + " " + rule);
  }
  bool positive(double x, const char* field) {
    const bool ok = std::isfinite(x) && x > 0.0;
    if (!ok) add(field, "must be finite and > 0", std::to_string(x));
    return ok;
  }
  void non_negative(double x, const char* field) {
    if (std::isfinite(x) && x >= 0.0) return;
    add(field, "must be finite and >= 0", std::to_string(x));
  }
  void positive(sim::Time t, const char* field) {
    if (t > sim::Time::zero()) return;
    add(field, "must be > 0", std::to_string(t.as_nanos()) + " ns");
  }
  void non_negative(sim::Time t, const char* field) {
    if (t >= sim::Time::zero()) return;
    add(field, "must be >= 0", std::to_string(t.as_nanos()) + " ns");
  }
  /// Finite, not inverted, and inside the [0, side]² field.
  void inside(const net::Rect& r, double side, const char* field) {
    const bool finite = std::isfinite(r.x0) && std::isfinite(r.y0) &&
                        std::isfinite(r.x1) && std::isfinite(r.y1);
    require(finite && r.x0 >= 0.0 && r.y0 >= 0.0 && r.x0 <= r.x1 &&
                r.y0 <= r.y1 && r.x1 <= side && r.y1 <= side,
            field, "must be finite, not inverted and inside [0, field.side_m]²");
  }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  void add(const char* field, const char* rule, const std::string& got) {
    add(std::string{field} + " " + rule + " (got " + got + ")");
  }

  std::string text_;
};

}  // namespace

std::uint64_t config_digest(const ExperimentConfig& config) {
  // Every field except the seed (a separate trace-header word) and the
  // trace spec (tracing a run must not change what the run *is*). The
  // structured bindings name every member, so a field added to any of
  // these structs fails to compile here until it is hashed.
  stats::Digest d;
  [[maybe_unused]] const auto& [field, algorithm, mac_type, tdma, sources,
                                sinks, placement, source_rect, sink_rect,
                                interest_region, protocol, phy, energy,
                                failures, duration, seed, trace_spec] = config;
  const auto& [side, nodes, range, cs_range] = field;
  hash_all(d, side, nodes, range, cs_range, algorithm, mac_type, sources,
           sinks, placement, source_rect, sink_rect,
           interest_region.has_value(), interest_region.value_or(net::Rect{}),
           duration);
  const auto& [max_payload, guard, tdma_retries] = tdma;
  hash_all(d, max_payload, guard, tdma_retries);
  const auto& [interest_period, gradient_timeout, exploratory_period, rate,
               t_a, t_n, t_p, event_bytes, control_bytes, interest_jitter,
               exploratory_jitter, repair_silence, suspect_hold, cache_ttl,
               truncation, propagation, corridor, aggregation] = protocol;
  const auto& [agg_header_bytes, agg_item_bytes] = aggregation;
  hash_all(d, interest_period, gradient_timeout, exploratory_period, rate,
           t_a, t_n, t_p, event_bytes, control_bytes, interest_jitter,
           exploratory_jitter, repair_silence, suspect_hold, cache_ttl,
           truncation, propagation, corridor, agg_header_bytes,
           agg_item_bytes);
  const auto& [bitrate, slot, sifs, difs, preamble, prop_delay, cw_min, cw_max,
               mac_retries, header_bytes, ack_bytes, queue_limit] = phy;
  hash_all(d, bitrate, slot, sifs, difs, preamble, prop_delay, cw_min, cw_max,
           mac_retries, header_bytes, ack_bytes, queue_limit);
  const auto& [tx_watts, rx_watts, idle_watts] = energy;
  hash_all(d, tx_watts, rx_watts, idle_watts);
  const auto& [enabled, fraction, period, protect] = failures;
  hash_all(d, enabled, fraction, period, protect);
  return d.value();
}

void validate(const ExperimentConfig& config) {
  Problems p;
  const net::FieldSpec& f = config.field;
  p.positive(f.side_m, "field.side_m");
  // Without a source no event is ever generated; without a sink nobody
  // asks for one (run_experiment would still place one corner sink).
  p.require(config.num_sources > 0, "num_sources", "must be >= 1");
  p.require(config.num_sinks > 0, "num_sinks", "must be >= 1");
  const std::size_t endpoints = config.num_sources + config.num_sinks;
  if (f.nodes == 0 || f.nodes < endpoints) {
    p.add("field.nodes must be at least 1 and at least num_sources + "
          "num_sinks (got " + std::to_string(f.nodes) + ", need " +
          std::to_string(endpoints) + ")");
  }
  p.positive(f.radio_range_m, "field.radio_range_m");
  p.require(f.carrier_sense_range_m == 0.0 ||
                (std::isfinite(f.carrier_sense_range_m) &&
                 f.carrier_sense_range_m >= f.radio_range_m),
            "field.carrier_sense_range_m",
            "must be 0 (the radio range) or finite and >= field.radio_range_m");
  p.inside(config.source_rect, f.side_m, "source_rect");
  p.inside(config.sink_rect, f.side_m, "sink_rect");
  if (config.interest_region.has_value()) {
    p.inside(*config.interest_region, f.side_m, "interest_region");
  }

  // Periods that re-arm their own timer must be > 0, or the run never
  // leaves the instant they fire at.
  const diffusion::DiffusionParams& d = config.diffusion;
  if (!(d.data_rate_hz >= 1e-9 && d.data_rate_hz <= 1e9)) {
    p.add("diffusion.data_rate_hz must lie in [1e-9, 1e9] (got " +
          std::to_string(d.data_rate_hz) + ")");
  }
  p.positive(d.interest_period, "diffusion.interest_period");
  p.positive(d.exploratory_period, "diffusion.exploratory_period");
  p.positive(d.t_n, "diffusion.t_n");
  p.positive(d.repair_silence, "diffusion.repair_silence");
  p.non_negative(d.gradient_timeout, "diffusion.gradient_timeout");
  p.non_negative(d.t_a, "diffusion.t_a");
  p.non_negative(d.t_p, "diffusion.t_p");
  p.non_negative(d.interest_jitter, "diffusion.interest_jitter");
  p.non_negative(d.exploratory_jitter, "diffusion.exploratory_jitter");
  p.non_negative(d.suspect_hold, "diffusion.suspect_hold");
  p.non_negative(d.cache_ttl, "diffusion.cache_ttl");
  p.positive(d.directional_corridor_m, "diffusion.directional_corridor_m");

  const mac::PhyParams& phy = config.phy;
  const bool bitrate_ok = p.positive(phy.bitrate_bps, "phy.bitrate_bps");
  p.positive(phy.slot, "phy.slot");
  p.non_negative(phy.sifs, "phy.sifs");
  p.non_negative(phy.difs, "phy.difs");
  p.non_negative(phy.preamble, "phy.preamble");
  p.non_negative(phy.propagation, "phy.propagation");
  p.require(phy.cw_min <= phy.cw_max && phy.cw_max <= 0x7fffffffu,
            "phy.cw_max", "must lie in [phy.cw_min, 2^31 - 1]");
  p.require(phy.max_retries >= 0, "phy.max_retries", "must be >= 0");
  p.require(phy.queue_limit > 0, "phy.queue_limit", "must be > 0");
  p.non_negative(config.energy.tx_watts, "energy.tx_watts");
  p.non_negative(config.energy.rx_watts, "energy.rx_watts");
  p.non_negative(config.energy.idle_watts, "energy.idle_watts");
  p.non_negative(config.tdma.guard, "tdma.guard");
  p.require(config.tdma.max_retries >= 0, "tdma.max_retries", "must be >= 0");
  if (config.mac_type == MacType::kTdma && bitrate_ok) {
    p.positive(config.tdma.slot(phy), "tdma slot (from tdma and phy)");
  }
  try {
    validate(config.failures);
  } catch (const std::invalid_argument& e) {
    p.add(e.what());
  }
  p.non_negative(config.duration, "duration");
  if (!p.text().empty()) throw std::invalid_argument{p.text()};
}

RunResult run_experiment(const ExperimentConfig& config) {
  validate(config);
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
  stats::MetricsCollector collector;
  Network network{sim, topo, config, master, &collector};

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
    // The first sink is drawn from the paper's corner rect; if that pick
    // is one of the random sources, it is redrawn uniformly over the whole
    // field (until it is not a source), so the sink can leave the corner.
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
  for (net::NodeId s : result.sources) network.node(s).set_detecting(true);
  for (net::NodeId k : result.sinks) network.node(k).make_sink(task_region);
  network.start();

  // --- failure process ---
  std::vector<char> protected_nodes(topo.node_count(), 0);
  for (net::NodeId s : result.sources) protected_nodes[s] = 1;
  for (net::NodeId k : result.sinks) protected_nodes[k] = 1;
  FailureProcess failures{
      sim, std::vector<mac::MacBase*>(network.macs().begin(),
                                      network.macs().end()),
      std::move(protected_nodes), config.failures, failure_rng};

  // --- run ---
  sim.run_until(config.duration);

  // --- harvest ---
  result.events_dispatched = sim.events_dispatched();
  const sim::RecyclingArena::Stats pool = sim.arena().stats();
  result.pool_acquires = pool.total_acquires;
  result.pool_slots_created = pool.blocks_created;
  result.pool_slots_live = pool.blocks_live;
  double total_energy = 0.0;
  double total_active = 0.0;
  stats::Accumulator per_node_energy;
  result.node_positions = topo.positions();
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const mac::MacBase& m = network.mac(id);
    const double j = m.energy_joules(sim.now());
    result.node_energy_joules.push_back(j);
    per_node_energy.add(j);
    total_energy += j;
    total_active += m.active_energy_joules(sim.now());
    for (std::size_t s = 0; s < mac::kRadioStateCount; ++s) {
      const auto state = static_cast<mac::RadioState>(s);
      WSN_TRACE_EMIT(&sim, trace::RecordKind::kEnergyTotal, id, trace::kNoPeer,
                     s, m.residence_ns(state, sim.now()));
    }
    const auto& st = m.stats();
    result.frames_sent += st.frames_sent + st.acks_sent;
    result.bytes_sent += st.bytes_sent;
    result.arrivals_corrupted += st.arrivals_corrupted;
    result.drops += st.drops_queue_full + st.drops_retry_exhausted;
  }
  for (net::NodeId id = 0; id < network.size(); ++id) {
    diffusion::DiffusionNode& n = network.node(id);
    const auto& p = n.stats();
    result.protocol.interests_sent += p.interests_sent;
    result.protocol.exploratory_sent += p.exploratory_sent;
    result.protocol.data_sent += p.data_sent;
    result.protocol.icm_sent += p.icm_sent;
    result.protocol.reinforcements_sent += p.reinforcements_sent;
    result.protocol.negatives_sent += p.negatives_sent;
    result.protocol.repairs_attempted += p.repairs_attempted;
    result.protocol.items_dropped_no_gradient += p.items_dropped_no_gradient;
    result.protocol.aggregates_received += p.aggregates_received;
    for (net::NodeId nb : n.data_gradient_neighbors()) {
      result.tree_edges.emplace_back(id, nb);
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
