// Size-bucketed recycling arena: steady-state allocation-free heap for the
// protocol hot path.
//
// `RecyclingArena` hands out fixed-size blocks and keeps every freed block
// on an intrusive per-size free list (the freed block's own memory stores
// the next pointer), so after warm-up an acquire/release cycle never
// touches the global heap. `ArenaAllocator<T>` adapts it to the standard
// allocator interface so `std::allocate_shared` places a message *and* its
// shared_ptr control block in one recycled slot:
// `MessagePtr` semantics — const sharing across broadcast receivers,
// lifetime extension by MAC queues — are completely unchanged.
//
// Ownership and lifetime: one arena per `Simulator`, declared before the
// event queue so it is destroyed after every scheduled closure (closures
// capture pooled shared_ptrs). Holders of pooled pointers (MACs, nodes,
// benches) must be destroyed before their Simulator — which the stack
// order in run_experiment / the test rigs already guarantees. The arena is
// single-threaded by construction: the parallel replicate engine gives
// each replicate its own Simulator, hence its own arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace wsn::sim {

class RecyclingArena {
 public:
  RecyclingArena() = default;
  RecyclingArena(const RecyclingArena&) = delete;
  RecyclingArena& operator=(const RecyclingArena&) = delete;

  ~RecyclingArena() {
    for (Bucket& b : buckets_) {
      FreeBlock* p = b.head;
      while (p != nullptr) {
        FreeBlock* next = p->next;
        ::operator delete(p);
        p = next;
      }
    }
  }

  /// Hands out a block of at least `bytes`; recycles a freed block of the
  /// same size class when one exists, otherwise allocates a fresh one.
  void* allocate(std::size_t bytes) {
    const std::size_t sz = size_class(bytes);
    ++total_acquires_;
    Bucket& b = bucket_for(sz);
    if (b.head != nullptr) {
      FreeBlock* p = b.head;
      b.head = p->next;
      --free_blocks_;
      return p;
    }
    ++blocks_created_;
    bytes_reserved_ += sz;
    return ::operator new(sz);
  }

  /// Returns a block to its size-class free list; never releases memory to
  /// the global heap before the arena itself dies.
  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t sz = size_class(bytes);
    Bucket& b = bucket_for(sz);
    auto* fb = static_cast<FreeBlock*>(p);
    fb->next = b.head;
    b.head = fb;
    ++free_blocks_;
  }

  /// Pool occupancy counters for benches and audits.
  struct Stats {
    std::uint64_t total_acquires = 0;  ///< allocate() calls, recycled or not
    std::uint64_t blocks_created = 0;  ///< distinct slots from the heap
    std::uint64_t blocks_free = 0;     ///< slots currently on free lists
    std::uint64_t blocks_live = 0;     ///< slots currently checked out
    std::uint64_t bytes_reserved = 0;  ///< heap bytes held by the arena
  };
  [[nodiscard]] Stats stats() const {
    return Stats{total_acquires_, blocks_created_, free_blocks_,
                 blocks_created_ - free_blocks_, bytes_reserved_};
  }

  /// Builds a pooled object: object and control block share one recycled
  /// slot, and releasing the last reference returns the slot to the arena.
  template <typename T, typename... Args>
  [[nodiscard]] std::shared_ptr<T> make(Args&&... args);

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  /// Rounds a request up to a 16-byte size class so near-identical shapes
  /// (control blocks of sibling message types, vector growth steps) share
  /// buckets. Every class fits a FreeBlock and is max_align-compatible
  /// (blocks come from plain ::operator new).
  [[nodiscard]] static std::size_t size_class(std::size_t bytes) {
    const std::size_t floor = sizeof(FreeBlock) > 16 ? sizeof(FreeBlock) : 16;
    if (bytes < floor) bytes = floor;
    return (bytes + 15) & ~std::size_t{15};
  }

  struct Bucket {
    std::size_t size = 0;
    FreeBlock* head = nullptr;
  };

  /// Linear scan: a run uses ~a dozen distinct size classes, and the hot
  /// ones land at the front of the vector after warm-up.
  Bucket& bucket_for(std::size_t sz) {
    for (Bucket& b : buckets_) {
      if (b.size == sz) return b;
    }
    buckets_.push_back(Bucket{sz, nullptr});
    return buckets_.back();
  }

  std::vector<Bucket> buckets_;
  std::uint64_t total_acquires_ = 0;
  std::uint64_t blocks_created_ = 0;
  std::uint64_t free_blocks_ = 0;
  std::uint64_t bytes_reserved_ = 0;
};

/// Standard-allocator adapter over a RecyclingArena. With a null arena it
/// degrades to the global heap, so default-constructed containers (tests,
/// tools) stay usable; protocol code always passes the simulator's arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() = default;
  explicit ArenaAllocator(RecyclingArena* arena) : arena_{arena} {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_{other.arena()} {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ == nullptr) return static_cast<T*>(::operator new(bytes));
    return static_cast<T*>(arena_->allocate(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p);
      return;
    }
    arena_->deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] RecyclingArena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  RecyclingArena* arena_ = nullptr;
};

template <typename T, typename... Args>
std::shared_ptr<T> RecyclingArena::make(Args&&... args) {
  return std::allocate_shared<T>(ArenaAllocator<T>{this},
                                 std::forward<Args>(args)...);
}

}  // namespace wsn::sim
