// Per-node radio energy accounting.
#pragma once

#include <algorithm>
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

/// Receive time, charged eagerly when each arrival starts instead of at its
/// end. Start sweeps run in time order, so charging each arrival only the
/// part of [now, end) not already covered — by earlier arrivals (up to
/// `until`) or by our own transmission (up to `tx_until`) — adds up to the
/// exact measure of "some arrival in flight and not transmitting". The
/// charge may run ahead of the clock; `ns_at` subtracts what lies ahead.
struct RxCharge {
  std::int64_t ns = 0;  ///< charged, including time still ahead of now
  sim::Time until;      ///< end of the latest-ending arrival charged
  sim::Time tx_until;   ///< end of our latest transmission

  /// An arrival over [now, end) starts.
  void arrive(sim::Time now, sim::Time end) {
    // Plain integers: maxima of `Time` references compile to address
    // selects through the stack on the start sweep's hot path.
    const std::int64_t covered =
        std::max(until.as_nanos(), tx_until.as_nanos());
    const std::int64_t from = std::max(now.as_nanos(), covered);
    ns += std::max<std::int64_t>(0, end.as_nanos() - from);
    until = std::max(until, end);
  }
  /// Our own transmission over [now, end) starts: the receive time charged
  /// inside it becomes transmit time.
  void begin_tx(sim::Time now, sim::Time end) {
    ns -= std::max<std::int64_t>(0, (std::min(until, end) - now).as_nanos());
    tx_until = end;
  }
  /// Power-down: returns the charge ahead of `now` and forgets the
  /// arrivals (an aborted transmission ends now too). `until` goes back to
  /// zero, as at construction, so it stays equal to the busy key's end
  /// (`RadioRecord`); every later read of it sits under a max or min with
  /// a time no earlier than `now`, where zero and `now` agree.
  void power_down(sim::Time now) {
    ns -= ahead(now);
    until = sim::Time::zero();
    tx_until = now;
  }
  /// Receive time up to `now`.
  [[nodiscard]] std::int64_t ns_at(sim::Time now) const {
    return ns - ahead(now);
  }

 private:
  [[nodiscard]] std::int64_t ahead(sim::Time now) const {
    return std::max<std::int64_t>(
        0, (until - std::max(now, tx_until)).as_nanos());
  }
};

/// Counts exact integer nanoseconds per radio state and converts them to
/// joules only when read, so energy depends on the time spent in each state
/// and not on how many calls split that time. The meter tracks Off, Idle and
/// Tx; receive time is charged separately (RxCharge) and carved out of Idle
/// when read, so every read takes the receive nanoseconds up to `now`.
class EnergyMeter {
 public:
  explicit EnergyMeter(const EnergyParams& p)
      : watts_{0.0, p.idle_watts, p.rx_watts, p.tx_watts} {}

  /// Call when the radio turns off, turns on (kIdle), or starts or stops
  /// transmitting.
  void set_state(sim::Time now, RadioState s) {
    WSN_AUDIT_CHECK(s != RadioState::kRx,
                    "receive time is charged by RxCharge, not the meter");
    ns_[static_cast<std::size_t>(state_)] = own_ns(state_, now);
    last_change_ = now;
    state_ = s;
  }

  /// Nanoseconds spent in `s` from construction up to `now`, given the
  /// receive time `rx_ns` charged up to `now`.
  [[nodiscard]] std::int64_t residence_ns(RadioState s, sim::Time now,
                                          std::int64_t rx_ns) const {
    const std::int64_t idle = own_ns(RadioState::kIdle, now);
    WSN_AUDIT_CHECK(rx_ns >= 0 && rx_ns <= idle,
                    "receive time negative or beyond the time alive and "
                    "not transmitting");
    switch (s) {
      case RadioState::kRx:
        return rx_ns;
      case RadioState::kIdle:
        return idle - rx_ns;
      default:
        return own_ns(s, now);
    }
  }

  /// Total energy consumed up to `now`.
  [[nodiscard]] double joules(sim::Time now, std::int64_t rx_ns) const {
    return joules_from(RadioState::kOff, now, rx_ns);
  }

  /// Energy spent transmitting or receiving only (no idle floor). The
  /// communication-driven share that in-network aggregation can reduce.
  [[nodiscard]] double active_joules(sim::Time now, std::int64_t rx_ns) const {
    return joules_from(RadioState::kRx, now, rx_ns);
  }

 private:
  /// Nanoseconds the meter itself counted in `s` (Rx is never one).
  [[nodiscard]] std::int64_t own_ns(RadioState s, sim::Time now) const {
    WSN_AUDIT_CHECK(now >= last_change_,
                    "energy charged or read before the last transition");
    const std::int64_t tail = s == state_ ? (now - last_change_).as_nanos() : 0;
    return ns_[static_cast<std::size_t>(s)] + tail;
  }

  /// Σ watts · ns · 1e-9 over the states from `first` to kTx, in order.
  [[nodiscard]] double joules_from(RadioState first, sim::Time now,
                                   std::int64_t rx_ns) const {
    double j = 0.0;
    for (auto i = static_cast<std::size_t>(first); i < kRadioStateCount; ++i) {
      const std::int64_t ns =
          residence_ns(static_cast<RadioState>(i), now, rx_ns);
      j += watts_[i] * static_cast<double>(ns) * 1e-9;
    }
    return j;
  }

  std::array<double, kRadioStateCount> watts_;  ///< indexed by RadioState
  std::array<std::int64_t, kRadioStateCount> ns_{};  ///< Rx entry unused
  RadioState state_ = RadioState::kIdle;
  sim::Time last_change_ = sim::Time::zero();
};

}  // namespace wsn::mac
