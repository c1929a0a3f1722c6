#include "net/field.hpp"

#include <utility>

namespace wsn::net {

std::vector<Vec2> generate_uniform_field(const FieldSpec& spec,
                                         sim::Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    pts.push_back({rng.uniform(0.0, spec.side_m), rng.uniform(0.0, spec.side_m)});
  }
  return pts;
}

GeneratedField generate_connected_topology(const FieldSpec& spec,
                                           sim::Rng& rng) {
  for (int attempt = 1;; ++attempt) {
    Topology topo{generate_uniform_field(spec, rng), spec.radio_range_m,
                  spec.carrier_sense_range_m};
    const bool connected = topo.connected();
    if (connected || attempt == kMaxFieldAttempts) {
      return {std::move(topo), attempt, connected};
    }
  }
}

std::vector<Vec2> generate_connected_field(const FieldSpec& spec,
                                           sim::Rng& rng) {
  return generate_connected_topology(spec, rng).topology.positions();
}

}  // namespace wsn::net
