// Microbenchmarks: discrete-event engine primitives, channel fan-out,
// topology build, whole set-ups and the weighted set-cover solvers.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/set_cover.hpp"
#include "mac/channel.hpp"
#include "mac/mac_base.hpp"
#include "mac/params.hpp"
#include "net/field.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "set_cover_instance.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace {

using namespace wsn::sim;

/// Dispatches every pending event through the engine's one dispatch call.
std::uint64_t drain(EventQueue& q) {
  std::uint64_t dispatched = 0;
  Time now;
  while (q.run_next(Time::max(), now)) ++dispatched;
  return dispatched;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng{1};
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.schedule(Time::nanos(rng.uniform_int(0, 1'000'000)), [] {});
    }
    benchmark::DoNotOptimize(drain(q));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1'000)->Arg(10'000)->Arg(100'000);

/// The CSMA timer pattern at the densest fig. 5 point: 350 nodes with one
/// timer each, as `CsmaMac` has. A contention expiry (DIFS plus 0-31
/// slots) arms the ACK wait, and an ACK expiry re-arms contention; every
/// fourth stint is frozen at once and re-armed, as an arrival and the
/// idle medium after it do.
void BM_TimerRearm(benchmark::State& state) {
  constexpr int kNodes = 350;
  struct CsmaTimer {
    CsmaTimer(Simulator& sim, Rng& rng)
        : timer{sim, [this] { on_expiry(); }}, rng_{&rng} {}
    void contend() {
      timer.arm(Time::micros(50 + 20 * rng_->uniform_int(0, 31)));
    }
    void on_expiry() {
      waiting_ack = !waiting_ack;
      if (waiting_ack) {
        timer.arm(Time::micros(300));
        return;
      }
      contend();
      if (++stints % 4 == 0) {
        timer.cancel();
        contend();
      }
    }
    Timer timer;
    Rng* rng_;
    bool waiting_ack = false;
    int stints = 0;
  };
  std::int64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    Rng rng{3};
    std::vector<std::unique_ptr<CsmaTimer>> nodes;
    for (int i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<CsmaTimer>(sim, rng));
      nodes.back()->timer.arm(Time::micros(rng.uniform_int(0, 1'000)));
    }
    events += static_cast<std::int64_t>(sim.run_until(Time::millis(200)));
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_TimerRearm);

/// An event that reschedules a copy of itself until `remaining` runs out.
/// Its 16 B fit the queue node's inline buffer, so no event allocates.
struct SelfScheduling {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) sim->schedule_in(Time::micros(10), *this);
  }
};

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int remaining = 100'000;
    sim.schedule_in(Time::micros(10), SelfScheduling{&sim, &remaining});
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

/// The shared receive core with no protocol reaction. It never contends,
/// so the sweeps call it only to count collisions and deliver clean frames,
/// and BM_ChannelFanout times the channel's walk over the packed radio
/// records (receive charge, busy key, clean arrival) and the event engine.
class SilentMac final : public wsn::mac::MacBase {
 public:
  using MacBase::MacBase;

  void send(wsn::net::Frame /*frame*/) override {}

 private:
  void on_tx_end(wsn::mac::FrameKind /*sent*/) override {}
  void on_power_change(bool /*alive*/) override {}
  void on_ack() override {}
  void deliver(const wsn::mac::Transmission& /*tx*/,
               std::uint32_t /*from_slot*/) override {}
};

/// A staggered broadcast storm on the fig-5 350-node field. Every
/// transmission fans out to the full carrier-sense disc (~150 radios at
/// this density), the per-event load of §5.1. Items are arrival starts
/// plus ends (two per audible radio per transmission, every radio alive),
/// so the reported rate is arrivals per second. Every radio only listens,
/// the common case on the dense field: no busy/idle hook runs. The second
/// argument is the stagger in µs: at 200 every 500 µs frame overlaps the
/// next, so many radios hold a clean arrival that a start sweep corrupts
/// (the full visit); at 600 no frames overlap and every carrier-sense-only
/// radio is quiet (the start sweep's fast path).
void BM_ChannelFanout(benchmark::State& state) {
  const auto transmissions = static_cast<int>(state.range(0));
  const Time stagger = Time::micros(state.range(1));
  wsn::net::FieldSpec spec;
  spec.nodes = 350;
  Rng field_rng{7};
  const wsn::net::Topology topo =
      wsn::net::generate_connected_topology(spec, field_rng).topology;
  const wsn::mac::PhyParams phy;
  const wsn::mac::EnergyParams energy;
  const Time airtime = Time::micros(500);
  const auto source = [&topo](int i) {
    return static_cast<wsn::net::NodeId>(static_cast<std::size_t>(i) * 13 %
                                         topo.node_count());
  };
  std::uint64_t arrivals_per_run = 0;
  for (int i = 0; i < transmissions; ++i) {
    arrivals_per_run += 2 * topo.audible(source(i)).size();
  }
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    wsn::mac::Channel channel{sim, topo, phy.propagation};
    std::vector<std::unique_ptr<SilentMac>> macs;
    macs.reserve(topo.node_count());
    for (wsn::net::NodeId id = 0; id < topo.node_count(); ++id) {
      macs.push_back(
          std::make_unique<SilentMac>(sim, channel, id, phy, energy));
    }
    for (int i = 0; i < transmissions; ++i) {
      const wsn::net::NodeId src = source(i);
      sim.schedule_at(stagger * i, [&channel, src, airtime] {
        wsn::net::Frame f;
        f.src = src;
        f.dst = wsn::net::kBroadcast;
        f.bytes = 64;
        channel.begin_transmission(src, std::move(f),
                                   wsn::mac::FrameKind::kData, airtime);
      });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(macs.back()->stats().arrivals_corrupted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      arrivals_per_run * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_ChannelFanout)
    ->Args({2'500, 200})
    ->Args({2'500, 600})
    ->Unit(benchmark::kMillisecond);

/// Builds the neighbour lists of a uniform field with the 88 m carrier-sense
/// range: sweep_failures' field (200 nodes in 200 m), the fig-5 densest
/// point (350 nodes in 200 m) and the same density at 10k nodes (1069 m).
/// Items are nodes built per second; the label names the scan's kernel,
/// which CPUID picks, so panels from different hosts compare like with like.
void BM_TopologyBuild(benchmark::State& state) {
  wsn::net::FieldSpec spec;
  spec.nodes = static_cast<std::size_t>(state.range(0));
  spec.side_m = static_cast<double>(state.range(1));
  Rng rng{5};
  const std::vector<wsn::net::Vec2> pts =
      wsn::net::generate_uniform_field(spec, rng);
  for (auto _ : state) {
    const wsn::net::Topology topo{pts, spec.radio_range_m,
                                  spec.carrier_sense_range_m};
    benchmark::DoNotOptimize(topo.average_degree());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.nodes));
  state.SetLabel(std::string{wsn::net::Topology::scan_kernel_name()});
}
BENCHMARK(BM_TopologyBuild)
    ->Args({200, 200})
    ->Args({350, 200})
    ->Args({10'000, 1069})
    ->Unit(benchmark::kMicrosecond);

/// Zero-duration set-ups of the densest fig. 5 point (350 nodes in 200 m,
/// greedy, CSMA) back to back, rotating over 24 seeds as perfbench's
/// dense_fig5 set-up samples do: field, topology, stack, roles and
/// teardown. One round primes the heap first. Time is per set-up, and
/// `minflt` counts the minor page faults per set-up (getrusage), which a
/// heap trimmed at teardown and faulted back in at the next set-up shows.
/// The label names the neighbour scan's kernel, as in BM_TopologyBuild.
void BM_DenseSetup(benchmark::State& state) {
  constexpr std::uint64_t kSeeds = 24;
  wsn::scenario::ExperimentConfig config;
  config.field.nodes = 350;
  config.algorithm = wsn::core::Algorithm::kGreedy;
  config.mac_type = wsn::scenario::MacType::kCsma;
  config.duration = Time::zero();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    config.seed = seed;
    benchmark::DoNotOptimize(wsn::scenario::run_experiment(config));
  }
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_minflt);
  };
  const double faults_before = minor_faults();
  std::uint64_t k = 0;
  for (auto _ : state) {
    config.seed = 1 + k++ % kSeeds;
    benchmark::DoNotOptimize(wsn::scenario::run_experiment(config));
  }
  state.counters["minflt"] = benchmark::Counter(
      minor_faults() - faults_before, benchmark::Counter::kAvgIterations);
  state.SetLabel(std::string{wsn::net::Topology::scan_kernel_name()});
}
BENCHMARK(BM_DenseSetup)->Unit(benchmark::kMicrosecond);

void BM_GreedyCover(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(state.range(0));
  const auto sets = static_cast<std::size_t>(state.range(1));
  const auto family =
      wsn::bench::random_set_cover_instance(universe, sets, 0.4, 42);
  wsn::agg::GreedyCoverWorkspace ws;
  for (auto _ : state) {
    const auto& r = wsn::agg::greedy_weighted_set_cover(ws, family, universe);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_GreedyCover)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Args({64, 32})
    ->Args({14, 14});  // the paper's max fan-in (14 sources)

void BM_ExactCover(benchmark::State& state) {
  const auto universe = static_cast<std::uint32_t>(state.range(0));
  const auto family =
      wsn::bench::random_set_cover_instance(universe, 10, 0.4, 42);
  for (auto _ : state) {
    auto r = wsn::agg::exact_weighted_set_cover(family, universe);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExactCover)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_RngNext(benchmark::State& state) {
  Rng rng{3};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng{4};
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_int(0, 31));
}
BENCHMARK(BM_RngUniformInt);

}  // namespace

BENCHMARK_MAIN();
