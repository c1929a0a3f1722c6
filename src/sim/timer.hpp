// Restartable one-shot timer bound to a Simulator.
#pragma once

#include <utility>

#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"

namespace wsn::sim {

/// One-shot timer with restart/cancel, the building block for the protocol
/// timers in this codebase (aggregation delay T_a, reinforcement wait T_p,
/// truncation window T_n, gradient expiry).
///
/// The callback is set once; `arm` (re)schedules it. Arming an armed timer
/// cancels the previous expiry first. The owner must outlive the simulator
/// run or call `cancel()` in its destructor path (Timer cancels itself on
/// destruction).
class Timer {
 public:
  Timer(Simulator& sim, InlineFn on_expire)
      : sim_{&sim}, on_expire_{std::move(on_expire)} {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// Schedules expiry `delay` from now, replacing any pending expiry.
  void arm(Time delay) {
    cancel();
    handle_ = sim_->schedule_in(delay, [this] {
      handle_ = EventHandle{};
      on_expire_();
    });
  }

  /// Schedules expiry only if not already armed.
  void arm_if_idle(Time delay) {
    if (!armed()) arm(delay);
  }

  void cancel() {
    if (handle_.valid()) {
      sim_->cancel(handle_);
      handle_ = EventHandle{};
    }
  }

  [[nodiscard]] bool armed() const {
    return handle_.valid() && sim_->pending(handle_);
  }

 private:
  Simulator* sim_;
  InlineFn on_expire_;
  EventHandle handle_;
};

}  // namespace wsn::sim
