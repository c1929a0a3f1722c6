// Restartable one-shot timer bound to a Simulator.
#pragma once

#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace wsn::sim {

/// One-shot timer with restart/cancel, the building block for the protocol
/// timers in this codebase (aggregation delay T_a, reinforcement wait T_p,
/// truncation window T_n, gradient expiry, the CSMA MAC's one access timer
/// for DIFS, backoff and the ACK wait, the TDMA MAC's one timer for its
/// slot and ACK window, every MAC's end-of-frame wait).
///
/// The timer embeds its own event-queue node, and the callback is built in
/// that node once, at construction. `arm` relinks the node with a fresh
/// key, exactly as cancelling and scheduling anew would order it; `cancel`
/// unlinks it; `armed()` means it is linked. Nothing is allocated or moved.
///
/// The Simulator must outlive its timers: a Timer unlinks its node from the
/// simulator's queue on destruction. Every stack declares the Simulator
/// before the MACs and nodes that own timers: run_experiment, the MAC and
/// protocol test rigs, animal_tracking, micro_sim and perfbench's traced
/// stack.
class Timer {
 public:
  template <typename F>
  Timer(Simulator& sim, F&& on_expire)
      : sim_{&sim}, node_{std::forward<F>(on_expire)} {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// Schedules expiry `delay` (clamped to be non-negative) from now,
  /// replacing any pending expiry.
  void arm(Time delay) {
    if (delay < Time::zero()) delay = Time::zero();
    sim_->queue_.arm(node_, sim_->now() + delay);
  }

  /// Schedules expiry only if not already armed.
  void arm_if_idle(Time delay) {
    if (!armed()) arm(delay);
  }

  void cancel() { sim_->queue_.disarm(node_); }

  [[nodiscard]] bool armed() const { return node_.linked(); }

 private:
  Simulator* sim_;
  EventQueue::Node node_;
};

}  // namespace wsn::sim
