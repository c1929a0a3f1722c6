// Shared identifiers and parameters for the directed-diffusion layer.
#pragma once

#include <cstdint>

#include "agg/aggregation_fn.hpp"
#include "net/types.hpp"
#include "net/vec2.hpp"
#include "sim/time.hpp"

namespace wsn::diffusion {

/// Node that generated an event.
using SourceId = net::NodeId;
/// Per-source event counter; (SourceId, EventSeq) names a distinct event.
using EventSeq = std::uint32_t;
/// Globally unique message instance id (the paper's "random message id").
using MsgId = std::uint64_t;

/// Identity of one distinct data item as it moves through the network.
struct DataItemKey {
  SourceId source = net::kNoNode;
  EventSeq seq = 0;

  constexpr bool operator==(const DataItemKey&) const = default;
  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(source) << 32) | seq;
  }
};

/// Gradient state toward one neighbour (paper §2): exploratory gradients
/// carry low-rate exploratory events; data gradients are reinforced and
/// carry high-rate data.
enum class GradientType : std::uint8_t { kExploratory, kData };

/// Hop-count energy cost attribute (paper §4.1: fixed transmission power,
/// "we measure energy as equivalent to hops").
using EnergyCost = std::uint32_t;
inline constexpr EnergyCost kInfiniteCost = 0xffffffffu;

/// How interests spread (paper §2: "the node floods the interest to all
/// its neighbors, or send only to a subset of neighbors in the direction
/// of the specified region").
enum class InterestPropagation : std::uint8_t {
  kFlood,        ///< network-wide flood (the paper's evaluated default)
  kDirectional,  ///< rebroadcast only when making progress toward the region
};

/// Protocol timing and sizing parameters (paper §5.1 defaults).
struct DiffusionParams {
  sim::Time interest_period = sim::Time::seconds(5.0);
  sim::Time gradient_timeout = sim::Time::seconds(15.0);
  sim::Time exploratory_period = sim::Time::seconds(50.0);
  double data_rate_hz = 2.0;               ///< events per second per source
  sim::Time t_a = sim::Time::seconds(0.5); ///< aggregation delay
  sim::Time t_n = sim::Time::seconds(2.0); ///< negative-reinforcement window
  sim::Time t_p = sim::Time::seconds(1.0); ///< greedy positive-reinforcement wait

  std::uint32_t event_bytes = 64;    ///< exploratory / single-event messages
  std::uint32_t control_bytes = 36;  ///< interests, ICMs, (neg)reinforcements

  /// Random broadcast forwarding delay that de-synchronises floods. Sized
  /// so a whole carrier-sense disc of rebroadcasts (≈150 nodes at the
  /// densest fields) can serialise without a collision storm.
  sim::Time interest_jitter = sim::Time::millis(150);
  sim::Time exploratory_jitter = sim::Time::millis(100);

  /// Local repair: a previously-fed on-tree node that hears no data for
  /// this long re-reinforces an alternative upstream from its caches.
  sim::Time repair_silence = sim::Time::seconds(2.0);
  /// How long a neighbour stays blacklisted after a MAC-level send failure.
  sim::Time suspect_hold = sim::Time::seconds(5.0);
  /// Seen-item / seen-message cache retention.
  sim::Time cache_ttl = sim::Time::seconds(10.0);

  /// Disables §4.3 path truncation (negative reinforcement sweeps); used
  /// by the ablation benchmarks to quantify what truncation contributes.
  bool enable_truncation = true;

  /// Interest dissemination strategy.
  InterestPropagation interest_propagation = InterestPropagation::kFlood;
  /// Directional mode: half-width of the forwarding corridor around the
  /// sink→region-centre line. Must exceed the radio range for the corridor
  /// to stay connected; wider tolerates voids and failures better.
  double directional_corridor_m = 60.0;

  /// Aggregate size model; defaults to the paper's perfect aggregation.
  agg::AggregateSize aggregation = agg::kPerfect;
};

}  // namespace wsn::diffusion
