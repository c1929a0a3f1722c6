#include "traced_stack.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "mac/channel.hpp"
#include "mac/csma_mac.hpp"
#include "measure.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/failure.hpp"
#include "sim/simulator.hpp"
#include "stats/accumulator.hpp"
#include "stats/digest.hpp"
#include "trace/trace.hpp"
#include "trees/models.hpp"

namespace perfbench {
namespace {

using wsn::trace::RecordKind;

// Host time since the previous call, for back-to-back spans.
class SpanClock {
 public:
  double lap() {
    const double now = host_seconds();
    const double span = now - last_;
    last_ = now;
    return span;
  }

 private:
  double last_ = host_seconds();
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedRun run_traced_stack(const wsn::scenario::ExperimentConfig& config) {
  namespace ws = wsn::scenario;
  if (config.mac_type != ws::MacType::kCsma ||
      config.source_placement != ws::SourcePlacement::kCorner ||
      config.num_sinks != 1 ||
      config.field.nodes < config.num_sources + config.num_sinks) {
    throw std::invalid_argument(
        "traced stack covers CSMA, corner placement and one sink only");
  }
  TracedRun out;
  LayerSums& L = out.layers;
  const double start = host_seconds();
  SpanClock clock;

  wsn::sim::Rng master{config.seed};
  wsn::sim::Rng field_rng = master.fork(1);
  wsn::sim::Rng placement_rng = master.fork(2);
  wsn::sim::Rng failure_rng = master.fork(3);

  // --- net ---
  const auto positions =
      wsn::net::generate_connected_field(config.field, field_rng);
  L["net.field_gen_s"] = clock.lap();
  const wsn::net::Topology topo{positions, config.field.radio_range_m,
                                config.field.carrier_sense_range_m};
  L["net.topology_build_s"] = clock.lap();
  const std::size_t n = topo.node_count();

  // --- mac (the tracer is attached before the channel, as in
  // run_experiment) ---
  // Counters only: no file sink, no flight ring.
  wsn::trace::Tracer::Options trace_options;
  trace_options.seed = config.seed;
  trace_options.config_digest = ws::config_digest(config);
  wsn::trace::Tracer tracer{trace_options};
  wsn::sim::Simulator sim;
  sim.set_tracer(&tracer);
  wsn::mac::Channel channel{sim, topo, config.phy.propagation};
  std::vector<std::unique_ptr<wsn::mac::MacBase>> macs;
  macs.reserve(n);
  for (wsn::net::NodeId id = 0; id < n; ++id) {
    macs.push_back(std::make_unique<wsn::mac::CsmaMac>(
        sim, channel, id, config.phy, config.energy, master.fork(1000 + id)));
  }
  L["mac.construct_s"] = clock.lap();

  // --- diffusion / core ---
  wsn::stats::MetricsCollector collector;
  std::vector<std::unique_ptr<wsn::diffusion::DiffusionNode>> nodes;
  nodes.reserve(n);
  for (wsn::net::NodeId id = 0; id < n; ++id) {
    nodes.push_back(wsn::core::make_diffusion_node(
        config.algorithm, sim, *macs[id], topo.position(id), config.diffusion,
        master.fork(2000 + id), &collector));
  }
  L["diffusion.construct_s"] = clock.lap();

  // --- trees: workload placement ---
  const auto inst = wsn::trees::make_corner_instance(
      topo, config.num_sources, config.source_rect, config.sink_rect,
      placement_rng);
  const std::vector<wsn::net::NodeId> sources(inst.sources.begin(),
                                              inst.sources.end());
  const wsn::net::NodeId sink = inst.sink;
  L["trees.placement_s"] = clock.lap();

  // --- scenario: roles, start, failure process ---
  const wsn::net::Rect task_region = config.interest_region.value_or(
      wsn::net::Rect{0.0, 0.0, config.field.side_m, config.field.side_m});
  for (wsn::net::NodeId s : sources) nodes[s]->set_detecting(true);
  nodes[sink]->make_sink(task_region);
  for (auto& node : nodes) node->start();
  std::vector<char> protected_nodes(n, 0);
  for (wsn::net::NodeId s : sources) protected_nodes[s] = 1;
  protected_nodes[sink] = 1;
  std::vector<wsn::mac::MacBase*> mac_ptrs;
  for (auto& m : macs) mac_ptrs.push_back(m.get());
  ws::FailureProcess failures{sim, mac_ptrs, protected_nodes, config.failures,
                              failure_rng};
  L["scenario.start_s"] = clock.lap();

  // --- sim ---
  sim.run_until(config.duration);
  L["sim.run_s"] = clock.lap();

  // --- harvest (the same work as run_experiment's) ---
  const wsn::sim::RecyclingArena::Stats pool = sim.arena().stats();
  double total_energy = 0.0;
  double total_active = 0.0;
  wsn::stats::Accumulator per_node_energy;
  std::vector<double> node_energy;
  wsn::mac::MacStats mac_totals;
  for (auto& m : macs) {
    const double j = m->energy_joules(sim.now());
    node_energy.push_back(j);
    per_node_energy.add(j);
    total_energy += j;
    total_active += m->active_energy_joules(sim.now());
    const auto& st = m->stats();
    mac_totals.frames_sent += st.frames_sent;
    mac_totals.acks_sent += st.acks_sent;
    mac_totals.frames_delivered += st.frames_delivered;
    mac_totals.arrivals_corrupted += st.arrivals_corrupted;
    mac_totals.drops_queue_full += st.drops_queue_full;
    mac_totals.drops_retry_exhausted += st.drops_retry_exhausted;
    mac_totals.retries += st.retries;
  }
  wsn::diffusion::ProtocolStats proto;
  std::vector<std::pair<wsn::net::NodeId, wsn::net::NodeId>> tree_edges;
  for (auto& node : nodes) {
    const auto& p = node->stats();
    proto.interests_sent += p.interests_sent;
    proto.exploratory_sent += p.exploratory_sent;
    proto.data_sent += p.data_sent;
    proto.icm_sent += p.icm_sent;
    proto.reinforcements_sent += p.reinforcements_sent;
    proto.negatives_sent += p.negatives_sent;
    proto.repairs_attempted += p.repairs_attempted;
    proto.items_dropped_no_gradient += p.items_dropped_no_gradient;
    proto.aggregates_received += p.aggregates_received;
    for (wsn::net::NodeId nb : node->data_gradient_neighbors()) {
      tree_edges.emplace_back(node->id(), nb);
    }
  }
  const wsn::trace::CounterTable counters = tracer.counters();
  out.metrics = collector.finalize(total_energy, total_active, n, 1);
  L["scenario.harvest_s"] = clock.lap();
  out.wall_s = host_seconds() - start;
  out.digest = wsn::stats::digest_of(out.metrics);

  const auto count = [&](RecordKind k) {
    return static_cast<double>(counters.of(k));
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  L["sim.events_dispatched"] = u(sim.events_dispatched());
  L["sim.pool_acquires"] = u(pool.total_acquires);
  L["sim.pool_slots_created"] = u(pool.blocks_created);
  L["sim.pool_bytes_reserved"] = u(pool.bytes_reserved);
  L["sim.pool_slots_live"] = u(pool.blocks_live);
  L["_sim_seconds"] = config.duration.as_seconds();
  L["_avg_degree"] = topo.average_degree();
  double audible = 0.0;
  for (wsn::net::NodeId id = 0; id < n; ++id) {
    audible += static_cast<double>(topo.audible(id).size());
  }
  L["net.audible_entries"] = audible;
  L["mac.frames_sent"] = u(mac_totals.frames_sent);
  L["mac.acks_sent"] = u(mac_totals.acks_sent);
  L["mac.retries"] = u(mac_totals.retries);
  L["mac.arrivals_corrupted"] = u(mac_totals.arrivals_corrupted);
  L["mac.drops"] =
      u(mac_totals.drops_queue_full + mac_totals.drops_retry_exhausted);
  L["_mac_delivered"] = u(mac_totals.frames_delivered);
  L["mac.backoffs"] = count(RecordKind::kMacBackoff);
  L["mac.collisions"] = count(RecordKind::kMacCollision);
  L["channel.sweeps"] = count(RecordKind::kChannelSweep);
  L["diffusion.interests_sent"] = u(proto.interests_sent);
  L["diffusion.exploratory_sent"] = u(proto.exploratory_sent);
  L["diffusion.data_sent"] = u(proto.data_sent);
  L["diffusion.reinforcements_sent"] = u(proto.reinforcements_sent);
  L["diffusion.negatives_sent"] = u(proto.negatives_sent);
  L["diffusion.repairs_attempted"] = u(proto.repairs_attempted);
  L["diffusion.items_dropped_no_gradient"] =
      u(proto.items_dropped_no_gradient);
  L["diffusion.aggregates_received"] = u(proto.aggregates_received);
  L["diffusion.cache_hits"] = count(RecordKind::kCacheHit);
  L["diffusion.cache_purges"] = count(RecordKind::kCachePurge);
  L["_receives"] = count(RecordKind::kInterestRecv) +
                   count(RecordKind::kExploratoryRecv) +
                   count(RecordKind::kDataRecv) +
                   count(RecordKind::kIcmRecv) +
                   count(RecordKind::kReinforceRecv) +
                   count(RecordKind::kNegativeRecv);
  L["core.icm_sent"] = u(proto.icm_sent);
  L["core.icm_recv"] = count(RecordKind::kIcmRecv);
  L["scenario.failure_rotations"] = u(failures.rotations());
  L["scenario.node_downs"] = count(RecordKind::kNodeDown);
  L["trace.records"] = u(counters.total());
  return out;
}

void accumulate(LayerSums& into, const LayerSums& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

std::map<std::string, double> layer_metrics(const LayerSums& sums,
                                            std::size_t runs) {
  const auto at = [&](const char* name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  for (const auto& [name, value] : sums) {
    if (name.front() != '_') m[name] = value;
  }
  m["sim.host_ns_per_event"] =
      ratio(at("sim.run_s") * 1e9, at("sim.events_dispatched"));
  m["sim.events_per_sim_s"] =
      ratio(at("sim.events_dispatched"), at("_sim_seconds"));
  m["net.avg_degree"] = ratio(at("_avg_degree"), static_cast<double>(runs));
  m["mac.retry_ratio"] = ratio(at("mac.retries"), at("mac.frames_sent"));
  m["mac.clean_rx_ratio"] =
      ratio(at("_mac_delivered"),
            at("_mac_delivered") + at("mac.arrivals_corrupted"));
  m["diffusion.dup_ratio"] =
      ratio(at("diffusion.cache_hits"), at("_receives"));
  return m;
}

}  // namespace perfbench
