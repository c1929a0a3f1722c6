// Pending-event priority queue for the discrete-event engine.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/audit.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace wsn::sim {

/// Opaque handle to a scheduled event; used to cancel it.
///
/// A handle packs (slot, generation): slots are recycled but every reuse
/// bumps the generation, so a stale handle never aliases a newer event and
/// is a safe no-op to cancel.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  constexpr bool operator==(const EventHandle&) const = default;

 private:
  friend class EventQueue;
  constexpr explicit EventHandle(std::uint64_t raw) : raw_{raw} {}
  std::uint64_t raw_ = 0;  ///< (generation << 32) | (slot + 1); 0 = invalid
};

/// Min-heap of (time, insertion order) → callback.
///
/// Ties at equal time are dispatched in insertion order, which makes
/// multi-node protocol interleavings deterministic.
///
/// Hot-path cost contract: schedule, cancel and pop perform **no heap
/// allocation and no hashing** in steady state. Callbacks live inline
/// (InlineFn) in a slab of recycled slots; the binary heap holds only
/// trivially-copyable (time, seq, slot, generation) entries on a flat
/// vector. Cancellation destroys the callback eagerly (releasing captured
/// resources immediately) and bumps the slot generation; the heap entry is
/// dropped lazily when it surfaces, detected by generation mismatch.
///
/// Invariant: the heap top is always live. `pop()` and `cancel()` drop
/// stale entries that reach the top before returning, so `next_time()` and
/// `pop()` read the top without a search (audited after every mutation).
class EventQueue {
 public:
  using Callback = InlineFn;

  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  EventHandle schedule(Time at, Callback fn);

  /// Cancels a pending event. Safe on already-fired or invalid handles.
  /// Returns true iff the event was pending and is now cancelled.
  bool cancel(EventHandle h);

  /// True iff the handle refers to a still-pending event.
  [[nodiscard]] bool pending(EventHandle h) const {
    const std::uint32_t index = slot_of(h);
    return index != kNoSlot && slots_[index].gen == gen_of(h);
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; Time::max() when empty.
  [[nodiscard]] Time next_time() const;

  /// Pops and returns the earliest pending event. Precondition: !empty().
  struct Fired {
    Time at;
    Callback fn;
  };
  Fired pop();

  /// Drops every pending event (destroying callbacks) and resets the pop
  /// watermark, but keeps slab and heap capacity so a reused queue stays
  /// allocation-free. All outstanding handles become stale.
  void clear();

 private:
  /// Heap entry. The callback is NOT here — it stays put in its slot, so
  /// heap sift operations move only these 24 trivially-copyable bytes.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Slab cell: the inline callback plus the generation stamped into
  /// handles and heap entries referring to its current occupant.
  struct Slot {
    InlineFn fn;
    std::uint32_t gen = 1;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

  /// Slot index of a handle, or kNoSlot when invalid / out of range.
  [[nodiscard]] std::uint32_t slot_of(EventHandle h) const {
    const auto index = static_cast<std::uint32_t>(h.raw_ & 0xFFFF'FFFFu) - 1u;
    return h.valid() && index < slots_.size() ? index : kNoSlot;
  }
  [[nodiscard]] static std::uint32_t gen_of(EventHandle h) {
    return static_cast<std::uint32_t>(h.raw_ >> 32);
  }

  /// Pops stale entries off the top, restoring the live-top invariant.
  void drop_stale_top();
  void release_slot(std::uint32_t index);
  void audit_top_live() const {
    WSN_AUDIT_CHECK(heap_.empty() ||
                        slots_[heap_.front().slot].gen == heap_.front().gen,
                    "event queue top is a stale (cancelled or fired) entry");
  }

  std::vector<Entry> heap_;  ///< binary heap via std::push/pop_heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::size_t live_ = 0;             ///< pending (scheduled, not yet
                                     ///< fired/cancelled) events
  std::uint64_t next_seq_ = 1;
  Time last_popped_ = Time::zero();  ///< audit: pop times never decrease
};

}  // namespace wsn::sim
