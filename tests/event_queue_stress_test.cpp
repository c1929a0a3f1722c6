// Slab EventQueue stress tests: fire-order equivalence against a naive
// reference model, steady-state allocation-freeness of the hot path, and
// clear()/slot-reuse regressions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

// ---------------------------------------------------------------- counting
// Global allocation counter. Linking a replacement operator new into a test
// binary counts every heap allocation made anywhere in the process, which
// is exactly what the steady-state test needs: after warm-up, a full
// schedule/cancel/pop cycle on the EventQueue must not allocate at all.
//
// GCC flags `delete`-site inlining of the malloc-backed replacement pair as
// mismatched new/delete; the pair IS consistent (new -> malloc,
// delete -> free), so silence the false positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#if defined(__has_feature)  // clang spells sanitizer detection this way
#define WSN_TEST_HAS_FEATURE(x) __has_feature(x)
#else
#define WSN_TEST_HAS_FEATURE(x) 0
#endif
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wsn::sim {
namespace {

// ------------------------------------------------------------- size proofs
// The engine's cost contract: every closure family the simulator schedules
// fits InlineFn's inline buffer. Shapes mirror the real call sites (MAC
// timers, channel sweeps, diffusion re-floods with a shared payload).
struct FakeTx {};
[[maybe_unused]] void engine_closure_sizes(void* self,
                                           std::shared_ptr<FakeTx> tx,
                                           std::uint64_t mid) {
  auto this_only = [self] { (void)self; };
  auto this_ptr = [self, tx] { (void)self; };
  auto this_ptr_id = [self, tx, mid] { (void)self, (void)mid; };
  static_assert(sizeof(this_only) <= InlineFn::kInlineBytes);
  static_assert(sizeof(this_ptr) <= InlineFn::kInlineBytes);
  static_assert(sizeof(this_ptr_id) <= InlineFn::kInlineBytes);
}
// Tests hand std::function lvalues to schedule(); they must fit too.
static_assert(sizeof(std::function<void()>) <= InlineFn::kInlineBytes,
              "InlineFn must hold a std::function for test scheduling");
static_assert(!std::is_copy_constructible_v<InlineFn>);
static_assert(std::is_nothrow_move_constructible_v<InlineFn>);

// ---------------------------------------------------------------- reference
/// Naive but obviously-correct event queue: an ordered map keyed by
/// (time, insertion seq). The oracle for the randomized stress test.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Time at) {
    const std::uint64_t seq = next_seq_++;
    pending_.emplace(std::pair{at, seq}, seq);
    return seq;
  }

  bool cancel(std::uint64_t seq) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second == seq) {
        pending_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool pending(std::uint64_t seq) const {
    for (const auto& [key, s] : pending_) {
      if (s == seq) return true;
    }
    return false;
  }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] Time next_time() const {
    return pending_.empty() ? Time::max() : pending_.begin()->first.first;
  }

  /// Pops the earliest (time, seq); returns (time, payload seq).
  std::pair<Time, std::uint64_t> pop() {
    auto it = pending_.begin();
    auto fired = std::pair{it->first.first, it->second};
    pending_.erase(it);
    return fired;
  }

 private:
  std::map<std::pair<Time, std::uint64_t>, std::uint64_t> pending_;
  std::uint64_t next_seq_ = 1;
};

// -------------------------------------------------------------------- tests

TEST(EventQueueStress, MatchesReferenceModelOverRandomOps) {
  // ~1e5 interleaved schedule/cancel/pop/pending ops driven by a pinned
  // stream. The slab queue must fire the same (time, payload) sequence and
  // answer pending()/size()/next_time() identically at every step. Audit
  // builds count, rather than abort on, violations here: the live-top
  // invariant must hold after every schedule, cancel and pop.
#if WSN_AUDIT_ENABLED
  audit::set_abort_on_violation(false);
  audit::reset_violations();
  const std::uint64_t checks_before = audit::checks_performed();
#endif
  Rng rng{2026};
  EventQueue q;
  ReferenceQueue ref;

  struct Tracked {
    EventHandle handle;
    std::uint64_t ref_seq;
  };
  std::vector<Tracked> seen;  // all handles ever issued, live or stale
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> ref_fired;

  Time now = Time::zero();
  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 45 || q.empty()) {
      // Schedule at a time >= the last pop so pop order stays monotone.
      const Time at = now + Time::nanos(rng.uniform_int(0, 5'000'000));
      const std::uint64_t ref_seq = ref.schedule(at);
      EventHandle h =
          q.schedule(at, [ref_seq, &fired] { fired.push_back(ref_seq); });
      ASSERT_TRUE(h.valid());
      ASSERT_TRUE(q.pending(h));
      seen.push_back({h, ref_seq});
    } else if (roll < 65) {
      // Cancel a random ever-issued handle (possibly long stale); the
      // slab's generation check must agree with the oracle.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(seen.size()) - 1));
      ASSERT_EQ(q.cancel(seen[idx].handle), ref.cancel(seen[idx].ref_seq));
      ASSERT_FALSE(q.pending(seen[idx].handle));
    } else if (roll < 75) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(seen.size()) - 1));
      ASSERT_EQ(q.pending(seen[idx].handle), ref.pending(seen[idx].ref_seq));
    } else {
      // Pop one event from each; time and payload must match.
      ASSERT_EQ(q.next_time(), ref.next_time());
      auto f = q.pop();
      const auto [ref_at, ref_seq] = ref.pop();
      ASSERT_EQ(f.at, ref_at);
      now = f.at;
      f.fn();
      ref_fired.push_back(ref_seq);
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!q.empty()) {
    ASSERT_EQ(q.next_time(), ref.next_time());
    auto f = q.pop();
    const auto [ref_at, ref_seq] = ref.pop();
    ASSERT_EQ(f.at, ref_at);
    f.fn();
    ref_fired.push_back(ref_seq);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(fired, ref_fired);
#if WSN_AUDIT_ENABLED
  EXPECT_GT(audit::checks_performed(), checks_before);
  EXPECT_EQ(audit::violations(), 0u);
  audit::set_abort_on_violation(true);
#endif
}

TEST(EventQueueStress, SteadyStateHotPathDoesNotAllocate) {
  EventQueue q;
  std::uint64_t sink = 0;
  std::vector<EventHandle> handles;
  constexpr int kBatch = 256;
  handles.reserve(kBatch);

  // One full cycle: schedule a batch (closures capture a pointer + a
  // value, like the engine's), cancel a third, drain the rest.
  auto cycle = [&](Time base) {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(q.schedule(base + Time::nanos((i * 37) % 1000),
                                   [&sink, i] { sink += i; }));
    }
    for (int i = 0; i < kBatch; i += 3) {
      q.cancel(handles[static_cast<std::size_t>(i)]);
    }
    Time last = Time::zero();
    while (!q.empty()) {
      auto f = q.pop();
      last = f.at;
      f.fn();
    }
    return last;
  };

  // Warm-up grows the slab, heap vector and free list to capacity.
  cycle(Time::seconds(1.0));
  cycle(Time::seconds(2.0));

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  cycle(Time::seconds(3.0));
  cycle(Time::seconds(4.0));
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    WSN_TEST_HAS_FEATURE(address_sanitizer) ||                       \
    WSN_TEST_HAS_FEATURE(thread_sanitizer)
  // Sanitizer runtimes allocate behind the scenes; the strict zero-alloc
  // assertion only holds in plain builds (the tier-1 gate runs it).
  (void)before;
  (void)after;
#else
  EXPECT_EQ(after - before, 0u)
      << "EventQueue hot path allocated in steady state";
#endif
  EXPECT_GT(sink, 0u);
}

TEST(EventQueueStress, CancelReleasesCapturedResourcesEagerly) {
  // Cancelling must destroy the stored closure immediately — captured
  // shared_ptrs (e.g. a Transmission) would otherwise live until the stale
  // heap entry happens to surface.
  EventQueue q;
  auto token = std::make_shared<int>(7);
  EventHandle h = q.schedule(Time::seconds(1.0), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(token.use_count(), 1);
  // The stale heap entry must be skipped cleanly afterwards.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());
}

TEST(EventQueueStress, ClearResetsWatermarkAndStalesHandles) {
  // Regression for clear(): a cleared queue must accept earlier times
  // again (pop watermark reset — WSN_AUDIT would abort otherwise), old
  // handles must be stale for both cancel() and pending(), and recycled
  // slots must not leak or alias.
  EventQueue q;
  auto token = std::make_shared<int>(1);
  std::vector<EventHandle> old;
  for (int i = 0; i < 16; ++i) {
    old.push_back(
        q.schedule(Time::seconds(100.0 + i), [token] { (void)*token; }));
  }
  // Advance the watermark past the times used after clear().
  (void)q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), Time::max());
  // clear() destroys stored closures, not just forgets them.
  EXPECT_EQ(token.use_count(), 1);
  for (EventHandle h : old) {
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
  }

  // Reuse: earlier-than-watermark times are legal again, slots recycle
  // without cross-talk, and the fire order is correct.
  std::vector<int> order;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 16; ++i) {
    fresh.push_back(q.schedule(Time::seconds(16.0 - i),
                               [i, &order] { order.push_back(i); }));
  }
  // Old handles are still inert even though their slots were recycled.
  for (EventHandle h : old) {
    EXPECT_FALSE(q.cancel(h));
  }
  EXPECT_EQ(q.size(), 16u);
  while (!q.empty()) q.pop().fn();
  const std::vector<int> expected{15, 14, 13, 12, 11, 10, 9, 8,
                                  7,  6,  5,  4,  3,  2,  1, 0};
  EXPECT_EQ(order, expected);

  // A second clear() on a popped-empty queue is a no-op that still stales
  // outstanding handles.
  q.clear();
  for (EventHandle h : fresh) {
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
  }
}

TEST(EventQueueStress, HandleGenerationsSurviveHeavySlotReuse) {
  // Recycle one slot thousands of times; every stale handle must stay
  // permanently inert.
  EventQueue q;
  std::vector<EventHandle> stale;
  for (int i = 0; i < 4096; ++i) {
    EventHandle h = q.schedule(Time::nanos(i), [] {});
    q.pop().fn();
    stale.push_back(h);
  }
  EventHandle live = q.schedule(Time::nanos(1), [] {});
  for (EventHandle h : stale) {
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
  }
  EXPECT_TRUE(q.pending(live));
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace wsn::sim
