// Protocol memory-model tests: the recycling arena itself, steady-state
// allocation-freeness of the data path over an established route, and a
// fig-5-style experiment pinned to a loose allocs-per-event ceiling so the
// pool cannot silently regress back to per-send heap traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "diffusion/messages.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "protocol_rig.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "sim/arena.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

// ---------------------------------------------------------------- counting
// Global allocation counter, same pattern as event_queue_stress_test: a
// replacement operator new counts every heap allocation in the process.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#if defined(__has_feature)
#define WSN_TEST_HAS_FEATURE(x) __has_feature(x)
#else
#define WSN_TEST_HAS_FEATURE(x) 0
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    WSN_TEST_HAS_FEATURE(address_sanitizer) ||                       \
    WSN_TEST_HAS_FEATURE(thread_sanitizer)
#define WSN_TEST_UNDER_SANITIZER 1
#else
#define WSN_TEST_UNDER_SANITIZER 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};  ///< non-null deletes
/// The value of g_allocs whose allocation throws std::bad_alloc; 0: none.
std::atomic<std::uint64_t> g_fail_at{0};

void count_free(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (g_allocs.fetch_add(1, std::memory_order_relaxed) + 1 ==
      g_fail_at.load(std::memory_order_relaxed)) {
    throw std::bad_alloc{};
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { count_free(p); }
void operator delete(void* p, std::size_t) noexcept { count_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  count_free(p);
}

namespace wsn {
namespace {

TEST(RecyclingArena, RecyclesSlotsPerSizeClass) {
  sim::RecyclingArena arena;
  // First acquisition creates a slot; releasing and re-making the same
  // shape must reuse it, not create another.
  auto a = arena.make<diffusion::ExploratoryMsg>();
  const auto created_once = arena.stats().blocks_created;
  EXPECT_GE(created_once, 1u);
  a.reset();
  EXPECT_EQ(arena.stats().blocks_free, created_once);
  auto b = arena.make<diffusion::ExploratoryMsg>();
  EXPECT_EQ(arena.stats().blocks_created, created_once);
  EXPECT_EQ(arena.stats().blocks_live, created_once);
  b.reset();

  // Live accounting: N concurrent messages -> N live slots, back to zero
  // when the last references drop.
  std::vector<std::shared_ptr<diffusion::ReinforcementMsg>> held;
  for (int i = 0; i < 8; ++i) {
    held.push_back(arena.make<diffusion::ReinforcementMsg>());
  }
  EXPECT_EQ(arena.stats().blocks_live, 8u);
  held.clear();
  EXPECT_EQ(arena.stats().blocks_live, 0u);
}

TEST(RecyclingArena, PooledDataMsgItemsUseTheArena) {
  sim::RecyclingArena arena;
  {
    auto msg = arena.make<diffusion::DataMsg>(arena);
    for (int i = 0; i < 32; ++i) {
      msg->items.push_back(diffusion::DataItem{{1, static_cast<diffusion::EventSeq>(i)}, 0});
    }
    EXPECT_GE(arena.stats().blocks_live, 2u);  // slot + item buffer(s)
  }
  // Everything returned to the free lists when the message died.
  EXPECT_EQ(arena.stats().blocks_live, 0u);
  EXPECT_GT(arena.stats().blocks_free, 0u);
}

TEST(RecyclingArena, SteadyStateMakeDoesNotTouchTheHeap) {
  sim::RecyclingArena arena;
  // Warm one slot per shape.
  arena.make<diffusion::ExploratoryMsg>().reset();
  {
    auto warm = arena.make<diffusion::DataMsg>(arena);
    warm->items.reserve(16);
  }
  const auto before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    auto msg = arena.make<diffusion::DataMsg>(arena);
    msg->items.reserve(16);
    msg->items.push_back(diffusion::DataItem{{2, 1}, 0});
  }
  const auto after = g_allocs.load(std::memory_order_relaxed);
#if !WSN_TEST_UNDER_SANITIZER
  EXPECT_EQ(after - before, 0u) << "pooled make/release cycle hit the heap";
#else
  (void)before;
  (void)after;
#endif
}

// A 4-node chain source -> relay -> relay -> sink, all within range of
// their neighbours only. Once gradients, the reinforced path, and the
// caches' working set are warm, the periodic data cycle (generate, flush,
// MAC send/ack, receive, flush, ...) must run without any heap allocation —
// for greedy too, whose every flush prices the aggregate with two set
// covers on the node's reused workspace.
TEST(ProtocolPool, EstablishedDataPathIsAllocationFreeAtSteadyState) {
  for (const core::Algorithm alg :
       {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
    SCOPED_TRACE(::testing::Message()
                 << (alg == core::Algorithm::kGreedy ? "greedy"
                                                     : "opportunistic"));
    std::vector<net::Vec2> chain{{0.0, 0.0}, {30.0, 0.0}, {60.0, 0.0},
                                 {90.0, 0.0}};
    testing::ProtocolRig rig{chain, alg, {}, 40.0, 1, /*with_metrics=*/false};
    rig.node(3).make_sink(rig.whole_field());
    rig.node(0).set_detecting(true);
    rig.start_all();

    // Warm past several exploratory periods (50 s) and housekeeping sweeps
    // so every cache, scratch buffer, pool bucket, and MAC ring has seen
    // its working-set high-water mark.
    rig.run_until(230.0);
    const auto sent_before = rig.node(0).stats().data_sent;

    const auto before = g_allocs.load(std::memory_order_relaxed);
    rig.run_until(280.0);
    const auto after = g_allocs.load(std::memory_order_relaxed);

    // The path carried real traffic during the measured window.
    EXPECT_GT(rig.node(0).stats().data_sent, sent_before + 50);
#if !WSN_TEST_UNDER_SANITIZER
    EXPECT_EQ(after - before, 0u)
        << "protocol data path allocated at steady state";
#else
    (void)before;
    (void)after;
#endif
  }
}

// Fig-5-style fields: the pool must absorb per-send message traffic, so
// total heap allocations stay a small constant per data frame the MACs put
// on the air, even across a full experiment (interest floods, exploratory
// floods, failures' worth of cache churn). Frames, not dispatched events,
// are the unit: the event count depends on how the MAC schedules its
// timers, while allocations follow the traffic. The runs measure 0.58 /
// 2.68 / 2.69 allocations per frame (50 nodes; 350 nodes seeds 1 and 2);
// the ceiling of 7.7 dates from when each greedy set cover still
// allocated (7.42 on the 50-node run).
//
// The 350-node, 5 sim-s runs are the dense fig-5 point at smoke length.
// Every pooled slot must be back by harvest, and the pool may create at
// most 1.9x the slots it created when these ceilings were recorded (336
// for seed 1, 329 for seed 2; 46 for the 50-node run), so a pool that
// stops recycling fails here rather than in a timing run.
TEST(ProtocolPool, Fig5RunStaysUnderAllocsPerFrameCeiling) {
  struct Case {
    std::size_t nodes;
    double seconds;
    std::uint64_t seed;
    std::uint64_t max_slots_created;
  };
  for (const Case c : {Case{50, 120.0, 1, 87}, Case{350, 5.0, 1, 638},
                       Case{350, 5.0, 2, 625}}) {
    SCOPED_TRACE(::testing::Message() << c.nodes << " nodes, " << c.seconds
                                      << " s, seed " << c.seed);
    scenario::ExperimentConfig cfg;
    cfg.field.nodes = c.nodes;
    cfg.duration = sim::Time::seconds(c.seconds);
    cfg.seed = c.seed;

    const auto before = g_allocs.load(std::memory_order_relaxed);
    const scenario::RunResult result = scenario::run_experiment(cfg);
    const auto after = g_allocs.load(std::memory_order_relaxed);

    ASSERT_GT(result.frames_sent, 1'000u);
    EXPECT_GT(result.pool_acquires, 0u);
    EXPECT_GT(result.pool_slots_created, 0u);
    EXPECT_LE(result.pool_slots_created, c.max_slots_created);
    // Slots recycle: the pool must have served far more acquisitions than
    // it ever created slots for.
    EXPECT_GT(result.pool_acquires, result.pool_slots_created * 4);
    // No pooled message outlives its last frame: none is held at harvest.
    EXPECT_EQ(result.pool_slots_live, 0u);
#if !WSN_TEST_UNDER_SANITIZER
    const double per_frame = static_cast<double>(after - before) /
                             static_cast<double>(result.frames_sent);
    EXPECT_LT(per_frame, 7.7) << "allocs/frame regressed: " << per_frame;
#else
    (void)before;
    (void)after;
#endif
  }
}

// On the paper's fields the stack keeps its MACs in one allocation and its
// nodes in another, so building (and tearing down) a Network over a
// prebuilt topology takes the same number of heap allocations at 50 nodes
// as at 350, for either MAC and either algorithm: no object takes a block
// of its own.
TEST(ProtocolPool, NetworkBuildTakesAConstantNumberOfAllocations) {
  for (const scenario::MacType type :
       {scenario::MacType::kCsma, scenario::MacType::kTdma}) {
    for (const core::Algorithm alg :
         {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
      scenario::ExperimentConfig config;
      config.mac_type = type;
      config.algorithm = alg;
      std::vector<std::uint64_t> counts;
      for (const std::size_t nodes : {50, 350}) {
        config.field.nodes = nodes;
        sim::Rng rng{3};
        const net::Topology topo{
            net::generate_uniform_field(config.field, rng),
            config.field.radio_range_m, config.field.carrier_sense_range_m};
        sim::Simulator sim;
        const auto before = g_allocs.load(std::memory_order_relaxed);
        {
          const scenario::Network network{sim, topo, config, sim::Rng{1},
                                          nullptr};
          EXPECT_EQ(network.size(), nodes);
        }
        counts.push_back(g_allocs.load(std::memory_order_relaxed) - before);
      }
#if !WSN_TEST_UNDER_SANITIZER
      EXPECT_EQ(counts[0], counts[1])
          << core::to_string(alg) << ", "
          << (type == scenario::MacType::kCsma ? "csma" : "tdma");
#endif
    }
  }
}

// A build that fails part way leaves nothing behind. The node block is the
// constructor's last allocation; when it throws, the TDMA MACs already
// built in the MAC block are destroyed (their first slots leave the queue)
// and every allocation made is freed.
TEST(ProtocolPool, NetworkBuildThatThrowsDestroysWhatItBuilt) {
  scenario::ExperimentConfig config;
  config.mac_type = scenario::MacType::kTdma;
  sim::Rng rng{3};
  const net::Topology topo{net::generate_uniform_field(config.field, rng),
                           config.field.radio_range_m,
                           config.field.carrier_sense_range_m};
  sim::Simulator sim;
  auto allocs = g_allocs.load();
  { const scenario::Network network{sim, topo, config, sim::Rng{1}, nullptr}; }
  const std::uint64_t per_build = g_allocs.load() - allocs;
  if (per_build == 0) GTEST_SKIP() << "operator new is not counted here";

  allocs = g_allocs.load();
  const auto frees = g_frees.load();
  g_fail_at = allocs + per_build;
  EXPECT_THROW(
      (scenario::Network{sim, topo, config, sim::Rng{1}, nullptr}),
      std::bad_alloc);
  g_fail_at = 0;
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(g_allocs.load() - allocs, per_build);
  EXPECT_EQ(g_frees.load() - frees, per_build - 1);  // all but the failed one
}

}  // namespace
}  // namespace wsn
