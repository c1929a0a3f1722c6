// Per-node radio energy accounting.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "mac/params.hpp"
#include "sim/audit.hpp"
#include "sim/time.hpp"

namespace wsn::mac {

/// Radio power states, in increasing priority: a transmitting radio is
/// charged TX power even while frames arrive (half duplex). The active
/// states come last.
enum class RadioState { kOff = 0, kIdle, kRx, kTx };
inline constexpr std::size_t kRadioStateCount = 4;

/// Counts exact integer nanoseconds per radio state and converts them to
/// joules only when read, so energy depends on the time spent in each state
/// and not on how many same-state `set_state` calls split that time.
class EnergyMeter {
 public:
  explicit EnergyMeter(const EnergyParams& p)
      : watts_{0.0, p.idle_watts, p.rx_watts, p.tx_watts} {}

  /// Call on every radio transition.
  void set_state(sim::Time now, RadioState s) {
    ns_[static_cast<std::size_t>(state_)] = residence_ns(state_, now);
    last_change_ = now;
    state_ = s;
  }

  /// Nanoseconds spent in `s` from construction up to `now`.
  [[nodiscard]] std::int64_t residence_ns(RadioState s, sim::Time now) const {
    WSN_AUDIT_CHECK(now >= last_change_,
                    "energy charged or read before the last transition");
    const std::int64_t tail = s == state_ ? (now - last_change_).as_nanos() : 0;
    return ns_[static_cast<std::size_t>(s)] + tail;
  }

  /// Total energy consumed up to `now`.
  [[nodiscard]] double joules(sim::Time now) const {
    return joules_from(RadioState::kOff, now);
  }

  /// Energy spent transmitting or receiving only (no idle floor). The
  /// communication-driven share that in-network aggregation can reduce.
  [[nodiscard]] double active_joules(sim::Time now) const {
    return joules_from(RadioState::kRx, now);
  }

 private:
  /// Σ watts · ns · 1e-9 over the states from `first` to kTx, in order.
  [[nodiscard]] double joules_from(RadioState first, sim::Time now) const {
    double j = 0.0;
    for (auto i = static_cast<std::size_t>(first); i < kRadioStateCount; ++i) {
      const std::int64_t ns = residence_ns(static_cast<RadioState>(i), now);
      j += watts_[i] * static_cast<double>(ns) * 1e-9;
    }
    return j;
  }

  std::array<double, kRadioStateCount> watts_;  ///< indexed by RadioState
  std::array<std::int64_t, kRadioStateCount> ns_{};
  RadioState state_ = RadioState::kIdle;
  sim::Time last_change_ = sim::Time::zero();
};

}  // namespace wsn::mac
