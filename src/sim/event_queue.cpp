#include "sim/event_queue.hpp"

#include "sim/audit.hpp"

namespace wsn::sim {

EventQueue::Node& EventQueue::acquire() {
  if (free_ == nullptr) {
    Node* chunk = chunks_.emplace_back(std::make_unique<Node[]>(kChunkSlots))
                      .get();
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      chunk[i].one_shot_ = true;
      chunk[i].next_ = free_;
      free_ = &chunk[i];
    }
  }
  Node& node = *free_;
  free_ = node.next_;
  return node;
}

void EventQueue::release(Node& node) {
  node.fn_.reset();
  node.next_ = free_;
  free_ = &node;
}

void EventQueue::insert(Node& node, Time at) {
  WSN_AUDIT_CHECK(bias(at) >= base_.time,
                  "event scheduled before the last dispatched event");
  node.key_ = Key{bias(at), next_seq_++};
  link(node);
  ++live_;
}

void EventQueue::link(Node& node) {
  const std::uint32_t b = bucket_of(node.key_);
  Node*& head = head_[b];
  node.bucket_ = b;
  node.prev_ = nullptr;
  node.next_ = head;
  if (head != nullptr) head->prev_ = &node;
  head = &node;
  occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void EventQueue::unlink(Node& node) {
  const std::uint32_t b = node.bucket_;
  if (node.prev_ != nullptr) {
    node.prev_->next_ = node.next_;
  } else {
    head_[b] = node.next_;
    if (head_[b] == nullptr) {
      occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
  }
  if (node.next_ != nullptr) node.next_->prev_ = node.prev_;
  node.bucket_ = kUnlinked;
}

std::uint32_t EventQueue::first_bucket() const {
  std::uint32_t b = kBuckets;
  if (occupied_[0] != 0) {
    b = static_cast<std::uint32_t>(std::countr_zero(occupied_[0]));
  } else if (occupied_[1] != 0) {
    b = 64u + static_cast<std::uint32_t>(std::countr_zero(occupied_[1]));
  }
  WSN_AUDIT_CHECK(b == kBuckets || head_[b] != nullptr,
                  "event queue occupancy bit set on an empty bucket");
  return b;
}

EventQueue::Node* EventQueue::min_of(Node* list) {
  Node* min = list;
  for (Node* n = list->next_; n != nullptr; n = n->next_) {
    if (n->key_ < min->key_) min = n;
  }
  return min;
}

Time EventQueue::next_time() const {
  const std::uint32_t b = first_bucket();
  return b == kBuckets ? Time::max() : unbias(min_of(head_[b])->key_.time);
}

bool EventQueue::run_next(Time until, Time& now) {
  const std::uint32_t b = first_bucket();
  if (b == kBuckets) return false;
  Node* list = head_[b];
  Node* node = min_of(list);
  if (node->key_.time > bias(until)) return false;
  WSN_AUDIT_CHECK(base_ < node->key_,
                  "event queue dispatched out of (time, seq) order");
  // Every other key in bucket b agrees with the old base above bit b and,
  // like the new one, has bit b set, so against the new base it lands in
  // a bucket below b.
  head_[b] = nullptr;
  occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  base_ = node->key_;
  for (Node* n = list; n != nullptr;) {
    Node* next = n->next_;
    if (n != node) {
      link(*n);
      WSN_AUDIT_CHECK(n->bucket_ < b,
                      "event queue dispatch left a node in its old bucket");
    }
    n = next;
  }
  node->bucket_ = kUnlinked;
  --live_;
  WSN_AUDIT_CHECK((live_ == 0) == (occupied_[0] == 0 && occupied_[1] == 0),
                  "event queue live count disagrees with its buckets");
  now = unbias(node->key_.time);
  node->fn_();
  if (node->one_shot_) release(*node);
  return true;
}

void EventQueue::clear() {
  WSN_AUDIT_ONLY(std::size_t linked = 0;)
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    WSN_AUDIT_CHECK(((occupied_[b >> 6] >> (b & 63)) & 1u) ==
                        static_cast<std::uint64_t>(head_[b] != nullptr),
                    "event queue occupancy word disagrees with its buckets");
    for (Node* n = head_[b]; n != nullptr;) {
      Node* next = n->next_;
      n->bucket_ = kUnlinked;
      if (n->one_shot_) release(*n);
      WSN_AUDIT_ONLY(++linked;)
      n = next;
    }
    head_[b] = nullptr;
  }
  WSN_AUDIT_CHECK(linked == live_,
                  "event queue live count differs from its linked nodes");
  occupied_ = {};
  live_ = 0;
  base_ = kOrigin;
}

}  // namespace wsn::sim
