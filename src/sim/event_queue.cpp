#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/audit.hpp"

namespace wsn::sim {

EventHandle EventQueue::schedule(Time at, Callback fn) {
  std::uint32_t index;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  heap_.push_back(Entry{at, next_seq_++, index, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  audit_top_live();
  return EventHandle{(static_cast<std::uint64_t>(slot.gen) << 32) |
                     (static_cast<std::uint64_t>(index) + 1u)};
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  ++slot.gen;  // stales every handle and heap entry for the old occupant
  free_.push_back(index);
  --live_;
}

bool EventQueue::cancel(EventHandle h) {
  const std::uint32_t index = slot_of(h);
  if (index == kNoSlot || slots_[index].gen != gen_of(h)) return false;
  // Lazy heap deletion: the entry stays in the heap, marked stale by the
  // generation mismatch, unless it is the top, which is dropped now.
  release_slot(index);
  drop_stale_top();
  audit_top_live();
  return true;
}

void EventQueue::drop_stale_top() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].gen != heap_.front().gen) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

Time EventQueue::next_time() const {
  return heap_.empty() ? Time::max() : heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Entry top = heap_.front();
  Fired fired{top.at, std::move(slots_[top.slot].fn)};
  release_slot(top.slot);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  drop_stale_top();
  audit_top_live();
  WSN_AUDIT_CHECK(fired.at >= last_popped_,
                  "event queue popped a time earlier than a previous pop");
  last_popped_ = fired.at;
  return fired;
}

void EventQueue::clear() {
  heap_.clear();
  free_.clear();
  // Every slot is bumped (not just live ones) so ALL outstanding handles —
  // including ones already freed — stay stale against future reuse.
  for (std::uint32_t index = 0;
       index < static_cast<std::uint32_t>(slots_.size()); ++index) {
    Slot& slot = slots_[index];
    slot.fn.reset();
    ++slot.gen;
    free_.push_back(index);
  }
  live_ = 0;
  last_popped_ = Time::zero();
}

}  // namespace wsn::sim
