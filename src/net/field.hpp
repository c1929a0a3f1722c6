// Random sensor-field generation (the paper's 200 m × 200 m square).
#pragma once

#include <cstddef>
#include <vector>

#include "net/topology.hpp"
#include "net/vec2.hpp"
#include "sim/random.hpp"

namespace wsn::net {

/// Parameters for generating one random field.
struct FieldSpec {
  double side_m = 200.0;      ///< square side length
  std::size_t nodes = 50;     ///< node count
  double radio_range_m = 40.0;
  /// Carrier-sense (audible) range; the classic ns-2 WaveLAN CS/RX ratio
  /// is 550 m / 250 m = 2.2, scaled here to the 40 m sensor radio.
  double carrier_sense_range_m = 88.0;
};

/// Places `spec.nodes` points uniformly at random in the square.
std::vector<Vec2> generate_uniform_field(const FieldSpec& spec,
                                         sim::Rng& rng);

/// Fields drawn before `generate_connected_topology` gives up.
inline constexpr int kMaxFieldAttempts = 100;

/// A generated field's topology and how it was realised.
struct GeneratedField {
  Topology topology;
  int attempts = 0;        ///< fields drawn, 1..kMaxFieldAttempts
  bool connected = false;  ///< false only if every attempt was disconnected
};

/// Places points uniformly but retries whole fields until the unit-disk
/// graph is connected (up to kMaxFieldAttempts; keeps the last attempt
/// regardless, mirroring the paper's practice of averaging over random
/// fields that are connected with high probability at these densities).
/// Each attempt is built with the spec's carrier-sense range, so the
/// accepted topology is the run's topology.
GeneratedField generate_connected_topology(const FieldSpec& spec,
                                           sim::Rng& rng);

/// The positions of `generate_connected_topology(spec, rng)`.
std::vector<Vec2> generate_connected_field(const FieldSpec& spec,
                                           sim::Rng& rng);

}  // namespace wsn::net
