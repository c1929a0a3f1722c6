// The paper's three evaluation metrics (§5.1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "stats/accumulator.hpp"

namespace wsn::stats {

/// One run's evaluation results.
struct RunMetrics {
  /// Average dissipated energy: total dissipated energy per node divided by
  /// the number of distinct events received by sinks [J/node/event].
  double avg_dissipated_energy = 0.0;
  /// Same metric over transmit+receive energy only (idle floor excluded).
  /// Isolates the communication share that aggregation can actually reduce;
  /// see EXPERIMENTS.md for how this relates to the paper's numbers.
  double avg_active_energy = 0.0;
  /// Average one-way latency between transmitting an event and receiving it
  /// at a sink, over distinct (sink, event) deliveries [s].
  double avg_delay = 0.0;
  /// Distinct events received / distinct events sent, normalised per sink.
  double delivery_ratio = 0.0;

  std::uint64_t distinct_generated = 0;
  std::uint64_t distinct_received = 0;  ///< summed over sinks
  double total_energy_joules = 0.0;
  double total_active_energy_joules = 0.0;
};

/// Collects generation/delivery observations during a run and computes the
/// paper's metrics afterwards. The protocol calls the two notes as events
/// are generated at sources and delivered at sinks; items are named by their
/// packed key (`diffusion::DataItemKey::packed()`). Every generated key is
/// fresh, so generations are counted; deliveries are filtered here: an event
/// delivered twice to the same sink is counted (and its delay measured) only
/// on first arrival.
class MetricsCollector {
 public:
  void on_event_generated() { ++generated_; }

  void on_event_delivered(net::NodeId sink, std::uint64_t packed_key,
                          sim::Time gen_time, sim::Time delivery_time) {
    auto& seen = per_sink_[sink];
    if (!seen.insert(packed_key).second) return;  // duplicate at this sink
    delay_.add((delivery_time - gen_time).as_seconds());
  }

  [[nodiscard]] std::uint64_t distinct_generated() const { return generated_; }
  [[nodiscard]] std::uint64_t distinct_received() const {
    std::uint64_t total = 0;
    // lint:unordered-ok — integer sum, order-insensitive
    for (const auto& [sink, seen] : per_sink_) total += seen.size();
    return total;
  }
  [[nodiscard]] std::uint64_t sinks_seen() const { return per_sink_.size(); }
  [[nodiscard]] const Accumulator& delay() const { return delay_; }

  /// Computes the final metrics given the radio energy totals and the
  /// experiment shape.
  [[nodiscard]] RunMetrics finalize(double total_energy_joules,
                                    double total_active_energy_joules,
                                    std::size_t node_count,
                                    std::size_t sink_count) const;

 private:
  std::uint64_t generated_ = 0;
  std::unordered_map<net::NodeId, std::unordered_set<std::uint64_t>> per_sink_;
  Accumulator delay_;
};

}  // namespace wsn::stats
