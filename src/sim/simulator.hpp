// Discrete-event simulation driver.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace wsn::trace {
class Tracer;
}

namespace wsn::sim {

/// Single-threaded discrete-event simulator.
///
/// Owns the virtual clock and the pending-event queue. Protocol code
/// schedules callbacks with `schedule_in`/`schedule_at` and reads the clock
/// with `now()`. One Simulator instance corresponds to one experiment run.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` after a relative delay (clamped to be non-negative).
  /// The closure is built in place in the queue's slab. A scheduled event
  /// cannot be cancelled; whatever protocol code may cancel is a Timer.
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    if (delay < Time::zero()) delay = Time::zero();
    queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to be no earlier than now).
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    if (at < now_) at = now_;
    queue_.schedule(at, std::forward<F>(fn));
  }

  /// Runs until the queue drains or `until` is reached, whichever first.
  /// The clock ends at min(until, last event time). Returns the number of
  /// events dispatched.
  std::uint64_t run_until(Time until);

  /// Runs until the queue drains.
  std::uint64_t run() { return run_until(Time::max()); }

  [[nodiscard]] std::uint64_t events_dispatched() const {
    return dispatched_;
  }
  /// Pending one-shot events plus armed timers.
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  /// The run's message pool. Everything with this simulator's lifetime
  /// (messages and their payload buffers) allocates here so a steady-state
  /// protocol cycle never touches the global heap. Transmissions live in
  /// the channel's own slots.
  [[nodiscard]] RecyclingArena& arena() { return arena_; }

  /// Structured event tracer, or nullptr (the default: tracing off). The
  /// tracer is owned by the caller and must outlive the simulator. All
  /// emission goes through WSN_TRACE_EMIT (trace/trace.hpp), which reduces
  /// to one load + branch on this pointer when tracing is off.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  // lint:trace-ok — the accessor WSN_TRACE_EMIT itself reads
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

 private:
  friend class Timer;  // links and unlinks its own node in queue_

  // Declared before the event queue: pending closures capture pooled
  // shared_ptrs, so the arena must outlive the queue's destructor.
  RecyclingArena arena_;
  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t dispatched_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace wsn::sim
