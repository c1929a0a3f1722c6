// Pending-event priority queue for the discrete-event engine.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace wsn::sim {

/// Monotone priority queue of (time, insertion order) → callback: a radix
/// heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) over intrusive
/// doubly-linked lists.
///
/// Ties at equal time are dispatched in insertion order, which makes
/// multi-node protocol interleavings deterministic: the key is 128 bits,
/// the time in ns biased to unsigned, then a sequence number drawn afresh
/// by every schedule and every timer arm.
///
/// `base_` is the key of the last dispatched node, and every linked key is
/// above it. Bucket b (0..127) holds the keys whose highest bit differing
/// from `base_` is bit b, so a lower bucket holds only smaller keys.
/// Dispatch takes the minimum of the smallest non-empty bucket, makes it
/// the base and moves that bucket's other nodes into lower buckets. Peeks
/// and a dispatch that finds its minimum beyond `until` change nothing.
///
/// Two kinds of node share the buckets:
///   * one-shot events, built by `schedule` in a slab slot (fixed-size
///     chunks, so addresses are stable) and freed after they run;
///   * timer nodes, embedded in sim::Timer: `arm` relinks one with a fresh
///     key and `disarm` unlinks it at once. Only timers can be cancelled.
///
/// Hot-path cost contract: schedule, arm, disarm and dispatch perform **no
/// heap allocation and no hashing** in steady state, and no closure is
/// ever moved: it is built in its node and runs there.
class EventQueue {
 public:
  /// One queue entry: key, bucket links and the callback. sim::Timer
  /// embeds one; the slab holds the one-shot ones.
  class Node {
   public:
    Node() = default;
    /// A timer node whose callback `fn` is built in place.
    template <typename F>
      requires std::is_invocable_r_v<void, std::decay_t<F>&>
    explicit Node(F&& fn) {
      fn_.emplace(std::forward<F>(fn));
    }
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    [[nodiscard]] bool linked() const { return bucket_ != kUnlinked; }

   private:
    friend class EventQueue;

    struct Key {
      std::uint64_t time = 0;  ///< ns, biased so signed order is kept
      std::uint64_t seq = 0;
      constexpr auto operator<=>(const Key&) const = default;
    };

    Key key_;
    Node* prev_ = nullptr;
    Node* next_ = nullptr;  ///< also the free-list link of a free slot
    std::uint32_t bucket_ = kUnlinked;
    bool one_shot_ = false;  ///< a slab slot, freed after its callback
    InlineFn fn_;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Builds `fn` in a slab slot and schedules it at absolute time `at`.
  /// Precondition (audited): `at` is not earlier than the last dispatched
  /// event; the queue is monotone.
  template <typename F>
  void schedule(Time at, F&& fn) {
    Node& node = acquire();
    node.fn_.emplace(std::forward<F>(fn));
    insert(node, at);
  }

  /// (Re)links a timer node at `at` with a fresh sequence number, as a
  /// cancel followed by a schedule would. Same precondition as schedule.
  void arm(Node& node, Time at) {
    disarm(node);
    insert(node, at);
  }

  /// Unlinks a timer node if it is linked.
  void disarm(Node& node) {
    if (node.linked()) {
      unlink(node);
      --live_;
    }
  }

  /// Pending one-shots plus linked timer nodes.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; Time::max() when empty.
  [[nodiscard]] Time next_time() const;

  /// Dispatches the earliest pending event if its time is <= `until`:
  /// sets `now` to its time, then runs its callback in place (a one-shot's
  /// slot is freed only after the callback returns). Returns false,
  /// changing nothing, when the queue is empty or the next event lies
  /// beyond `until`.
  bool run_next(Time until, Time& now);

  /// Drops every pending event (destroying one-shot closures, unlinking
  /// timer nodes) and resets the dispatch watermark, but keeps the slab so
  /// a reused queue stays allocation-free.
  void clear();

 private:
  using Key = Node::Key;

  static constexpr std::uint32_t kBuckets = 128;
  static constexpr std::uint32_t kUnlinked = kBuckets;
  // Slab chunks of 8 slots (896 bytes). A set-up run schedules only a few
  // one-shots; a 14 KB chunk freed at teardown merged the run's freed
  // objects into the heap top, glibc returned them to the system, and the
  // next 200-node set-up page-faulted ~450 KB back in (107 minor faults
  // per set-up). An 8-slot chunk goes back to glibc's per-thread cache and
  // faults no more than the binary heap did.
  static constexpr std::uint32_t kChunkSlots = 8;
  static constexpr std::uint64_t kTimeBias = std::uint64_t{1} << 63;
  static constexpr Key kOrigin{kTimeBias, 0};  ///< (Time::zero(), 0)

  static std::uint64_t bias(Time t) {
    return static_cast<std::uint64_t>(t.as_nanos()) ^ kTimeBias;
  }
  static Time unbias(std::uint64_t t) {
    return Time::nanos(static_cast<std::int64_t>(t ^ kTimeBias));
  }

  /// Highest bit of `key XOR base_`. Sequence numbers are never reused, so
  /// no linked key equals `base_`.
  [[nodiscard]] std::uint32_t bucket_of(const Key& key) const {
    const std::uint64_t hi = key.time ^ base_.time;
    return hi != 0 ? 63u + static_cast<std::uint32_t>(std::bit_width(hi))
                   : static_cast<std::uint32_t>(
                         std::bit_width(key.seq ^ base_.seq)) - 1u;
  }

  Node& acquire();
  void release(Node& node);
  /// Stamps (at, fresh seq) into an unlinked node and links it.
  void insert(Node& node, Time at);
  void link(Node& node);
  void unlink(Node& node);
  /// The smallest non-empty bucket; kBuckets when the queue is empty.
  [[nodiscard]] std::uint32_t first_bucket() const;
  /// The node with the smallest key in a non-empty bucket list.
  static Node* min_of(Node* list);

  std::array<Node*, kBuckets> head_{};
  std::array<std::uint64_t, 2> occupied_{};  ///< bit b: head_[b] != nullptr
  Key base_ = kOrigin;  ///< key of the last dispatched node
  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< one-shot slab
  Node* free_ = nullptr;                         ///< free slots, via next_
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace wsn::sim
