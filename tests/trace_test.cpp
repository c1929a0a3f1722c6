// Tests for the src/trace subsystem: binary round-trip, the flight ring,
// reader/diff semantics, experiment wiring, parallel-vs-serial
// bit-identity and the audit-triggered flight-recorder dump.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/sweep.hpp"
#include "sim/audit.hpp"
#include "sim/time.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"

namespace wsn::trace {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + name;
}

Record rec(std::int64_t t_ns, RecordKind kind, std::uint32_t node,
           std::uint32_t peer, std::uint64_t a, std::uint64_t b) {
  return Record{t_ns, kind, node, peer, a, b};
}

TEST(Trace, BinaryRoundTripPreservesHeaderAndRecords) {
  const std::string path = tmp_path("wsn_trace_roundtrip.bin");
  const std::vector<Record> written = {
      rec(0, RecordKind::kMacTxStart, 3, 7, 101, 24),
      rec(0, RecordKind::kChannelSweep, 3, kNoPeer, 101, 5),
      rec(1'000'000'000, RecordKind::kMacRx, 7, 3, 101, 24),
      // Out-of-order time exercises the zigzag delta path.
      rec(999'999'000, RecordKind::kCacheHit, 7, 3, 0xffffffffffffULL,
          0x8000000000000000ULL),
      rec(999'999'000, RecordKind::kNodeDown, 12, kNoPeer, 0, 0),
  };
  {
    Tracer tracer{Tracer::Options{
        .path = path, .ring_capacity = 0, .seed = 42, .config_digest = 0xabc}};
    ASSERT_TRUE(tracer.file_open()) << tracer.error();
    for (const Record& r : written) {
      tracer.emit(r.kind, sim::Time::nanos(r.t_ns), r.node, r.peer, r.a, r.b);
    }
    EXPECT_EQ(tracer.counters().total(), written.size());
    EXPECT_EQ(tracer.counters().of(RecordKind::kMacTxStart), 1u);
  }  // destructor flushes and closes

  TraceReader reader{path};
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.header().seed, 42u);
  EXPECT_EQ(reader.header().config_digest, 0xabcu);
  std::vector<Record> read;
  Record r;
  while (reader.next(r)) read.push_back(r);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(read, written);
  std::remove(path.c_str());
}

TEST(Trace, EveryKindHasOneNameUnderItsComponent) {
  // The names are what `trace_tool dump`/`summary` print, so they must be
  // unique and start with their component.
  std::set<std::string> names;
  for (std::size_t k = 0; k < kRecordKindCount; ++k) {
    const auto kind = static_cast<RecordKind>(k);
    const std::string name = kind_name(kind);
    EXPECT_EQ(name.rfind(std::string{kind_component(kind)} + ".", 0), 0u)
        << name;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_STREQ(kind_name(RecordKind::kCount), "?");
  EXPECT_STREQ(kind_component(static_cast<RecordKind>(999)), "?");
}

TEST(Trace, ReaderRejectsTruncatedFile) {
  const std::string path = tmp_path("wsn_trace_trunc.bin");
  {
    Tracer tracer{Tracer::Options{
        .path = path, .ring_capacity = 0, .seed = 1, .config_digest = 2}};
    for (int i = 0; i < 50; ++i) {
      tracer.emit(RecordKind::kMacBackoff, sim::Time::nanos(i * 1000), 1,
                  kNoPeer, 7, 31);
    }
  }
  // Chop the file mid-record.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 30);
  ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);

  TraceReader reader{path};
  ASSERT_TRUE(reader.ok()) << reader.error();
  Record r;
  while (reader.next(r)) {
  }
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("truncated"), std::string::npos)
      << reader.error();
  std::remove(path.c_str());
}

TEST(Trace, RingKeepsTheLastNRecordsOldestFirst) {
  Tracer tracer{Tracer::Options{
      .path = "", .ring_capacity = 4, .seed = 9, .config_digest = 0}};
  EXPECT_FALSE(tracer.file_open());
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.emit(RecordKind::kMacTxStart, sim::Time::nanos(i), 1, 2, i, 0);
  }
  const std::vector<Record> snap = tracer.ring_snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].a, 6 + i);  // records 6..9 survive, oldest first
  }
  EXPECT_EQ(tracer.counters().total(), 10u);
}

TEST(Trace, ResolveTracePathSubstitutesOrSuffixesTheSeed) {
  EXPECT_EQ(resolve_trace_path("/tmp/t-{seed}.bin", 17), "/tmp/t-17.bin");
  EXPECT_EQ(resolve_trace_path("/tmp/{seed}/{seed}.bin", 3), "/tmp/3/3.bin");
  EXPECT_EQ(resolve_trace_path("/tmp/t.bin", 17), "/tmp/t.bin.s17");
  EXPECT_EQ(resolve_trace_path("", 17), "");
}

TEST(Trace, SpecFromEnvReadsAndValidatesTheKnobs) {
  ::setenv("WSN_TRACE", "/tmp/env-trace.bin", 1);
  ::setenv("WSN_TRACE_RING", "4096", 1);
  TraceSpec spec = spec_from_env();
  EXPECT_EQ(spec.path, "/tmp/env-trace.bin");
  EXPECT_EQ(spec.ring_capacity, 4096u);
  EXPECT_TRUE(spec.enabled());

  ::setenv("WSN_TRACE_RING", "lots", 1);  // malformed: warn and disable
  spec = spec_from_env();
  EXPECT_EQ(spec.ring_capacity, 0u);

  ::unsetenv("WSN_TRACE");
  ::unsetenv("WSN_TRACE_RING");
  EXPECT_FALSE(spec_from_env().enabled());
}

TEST(Trace, DiffReportsTheFirstDivergentRecord) {
  const std::string pa = tmp_path("wsn_trace_diff_a.bin");
  const std::string pb = tmp_path("wsn_trace_diff_b.bin");
  {
    Tracer a{Tracer::Options{
        .path = pa, .ring_capacity = 0, .seed = 5, .config_digest = 9}};
    Tracer b{Tracer::Options{
        .path = pb, .ring_capacity = 0, .seed = 5, .config_digest = 9}};
    for (std::uint64_t i = 0; i < 6; ++i) {
      a.emit(RecordKind::kMacRx, sim::Time::nanos(i * 10), 1, 2, i, 0);
      // Injected divergence: record index 3 carries a different payload.
      b.emit(RecordKind::kMacRx, sim::Time::nanos(i * 10), 1, 2,
             i == 3 ? 99 : i, 0);
    }
  }
  const TraceDiff diff = diff_traces(pa, pb);
  ASSERT_TRUE(diff.comparable) << diff.error;
  EXPECT_FALSE(diff.identical);
  EXPECT_FALSE(diff.header_differs);
  EXPECT_EQ(diff.first_diff_index, 3u);
  ASSERT_TRUE(diff.has_a);
  ASSERT_TRUE(diff.has_b);
  EXPECT_EQ(diff.a.a, 3u);
  EXPECT_EQ(diff.b.a, 99u);

  const TraceDiff same = diff_traces(pa, pa);
  ASSERT_TRUE(same.comparable);
  EXPECT_TRUE(same.identical);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Trace, DiffFlagsPrefixTracesAndHeaderMismatches) {
  const std::string pa = tmp_path("wsn_trace_pfx_a.bin");
  const std::string pb = tmp_path("wsn_trace_pfx_b.bin");
  {
    Tracer a{Tracer::Options{
        .path = pa, .ring_capacity = 0, .seed = 5, .config_digest = 9}};
    Tracer b{Tracer::Options{
        .path = pb, .ring_capacity = 0, .seed = 6, .config_digest = 9}};
    for (std::uint64_t i = 0; i < 4; ++i) {
      a.emit(RecordKind::kMacRx, sim::Time::nanos(i), 1, 2, i, 0);
      if (i < 2) b.emit(RecordKind::kMacRx, sim::Time::nanos(i), 1, 2, i, 0);
    }
  }
  const TraceDiff diff = diff_traces(pa, pb);
  ASSERT_TRUE(diff.comparable) << diff.error;
  EXPECT_FALSE(diff.identical);
  EXPECT_TRUE(diff.header_differs);  // seeds 5 vs 6
  EXPECT_EQ(diff.first_diff_index, 2u);  // B ends two records early
  EXPECT_TRUE(diff.has_a);
  EXPECT_FALSE(diff.has_b);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

/// Writes `records` as a seed-5 trace at `path`.
void write_trace(const std::string& path, const std::vector<Record>& records) {
  Tracer tracer{Tracer::Options{
      .path = path, .ring_capacity = 0, .seed = 5, .config_digest = 9}};
  for (const Record& r : records) {
    tracer.emit(r.kind, sim::Time::nanos(r.t_ns), r.node, r.peer, r.a, r.b);
  }
}

TEST(Trace, CanonicalDiffIgnoresSameInstantOrder) {
  const std::string pa = tmp_path("wsn_trace_canon_order_a.bin");
  const std::string pb = tmp_path("wsn_trace_canon_order_b.bin");
  const Record backoff = rec(100, RecordKind::kMacBackoff, 1, kNoPeer, 4, 31);
  const Record sample = rec(100, RecordKind::kEnergySample, 2, kNoPeer, 3,
                            0x3f50624dd2f1a9fcULL);
  const Record later = rec(200, RecordKind::kNodeDown, 3, kNoPeer, 0, 0);
  write_trace(pa, {backoff, sample, later});
  write_trace(pb, {sample, backoff, later});

  const TraceDiff exact = diff_traces(pa, pb);
  ASSERT_TRUE(exact.comparable) << exact.error;
  EXPECT_FALSE(exact.identical);
  EXPECT_EQ(exact.first_diff_index, 0u);

  const TraceDiff canonical = diff_traces(pa, pb, DiffMode::kCanonical);
  ASSERT_TRUE(canonical.comparable) << canonical.error;
  EXPECT_TRUE(canonical.identical);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Trace, CanonicalDiffNamesTransmissionsBySenderAndStart) {
  // Nodes 1 and 2 start transmitting in the same nanosecond; the two runs
  // hand out their tx ids in opposite orders. Node 3 decodes node 1's
  // frame and counts node 2's as a collision.
  const auto run = [](std::uint64_t id1, std::uint64_t id2, bool node1_first,
                      std::uint64_t rx_id) {
    const Record s1 = rec(100, RecordKind::kMacTxStart, 1, 3, id1, 64);
    const Record s2 = rec(100, RecordKind::kMacTxStart, 2, 3, id2, 64);
    const Record w1 = rec(1'100, RecordKind::kChannelSweep, 1, kNoPeer, id1, 2);
    const Record w2 = rec(1'100, RecordKind::kChannelSweep, 2, kNoPeer, id2, 2);
    std::vector<Record> out = node1_first ? std::vector<Record>{s1, s2, w1, w2}
                                          : std::vector<Record>{s2, s1, w2, w1};
    out.push_back(rec(1'100, RecordKind::kMacCollision, 3, 2, id2, 0));
    out.push_back(rec(500'100, RecordKind::kMacTxEnd, 1, kNoPeer, id1, 0));
    out.push_back(rec(500'100, RecordKind::kMacTxEnd, 2, kNoPeer, id2, 0));
    out.push_back(rec(501'100, RecordKind::kMacRx, 3, 1, rx_id, 64));
    out.push_back(rec(700'000, RecordKind::kMacTxEnd, 3, kNoPeer, 0, 0));
    return out;
  };
  const std::string pa = tmp_path("wsn_trace_canon_ids_a.bin");
  const std::string pb = tmp_path("wsn_trace_canon_ids_b.bin");
  const std::string pc = tmp_path("wsn_trace_canon_ids_c.bin");
  write_trace(pa, run(7, 8, true, 7));
  write_trace(pb, run(8, 7, false, 8));
  // Control: node 3 claims to have received node 2's transmission instead.
  write_trace(pc, run(8, 7, false, 7));

  EXPECT_FALSE(diff_traces(pa, pb).identical);
  const TraceDiff swapped = diff_traces(pa, pb, DiffMode::kCanonical);
  ASSERT_TRUE(swapped.comparable) << swapped.error;
  EXPECT_TRUE(swapped.identical);

  const TraceDiff wrong = diff_traces(pa, pc, DiffMode::kCanonical);
  ASSERT_TRUE(wrong.comparable) << wrong.error;
  EXPECT_FALSE(wrong.identical);
  EXPECT_EQ(wrong.first_diff_t_ns, 501'100);
  ASSERT_TRUE(wrong.has_a);
  ASSERT_TRUE(wrong.has_b);
  EXPECT_EQ(wrong.a.a, 7u);
  EXPECT_EQ(wrong.b.a, 7u);  // same raw id, different transmission
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(pc.c_str());
}

TEST(Trace, CanonicalDiffStillCatchesAChangedValue) {
  const std::string pa = tmp_path("wsn_trace_canon_value_a.bin");
  const std::string pb = tmp_path("wsn_trace_canon_value_b.bin");
  const Record first = rec(50, RecordKind::kMacBackoff, 1, kNoPeer, 4, 31);
  const Record sample = rec(100, RecordKind::kEnergySample, 2, kNoPeer, 3,
                            0x3f50624dd2f1a9fcULL);
  Record changed = sample;
  changed.b ^= 1;  // one ulp of the joules so far
  write_trace(pa, {first, sample});
  write_trace(pb, {first, changed});

  const TraceDiff exact = diff_traces(pa, pb);
  ASSERT_TRUE(exact.comparable) << exact.error;
  EXPECT_FALSE(exact.identical);
  EXPECT_EQ(exact.first_diff_index, 1u);

  const TraceDiff canonical = diff_traces(pa, pb, DiffMode::kCanonical);
  ASSERT_TRUE(canonical.comparable) << canonical.error;
  EXPECT_FALSE(canonical.identical);
  EXPECT_EQ(canonical.first_diff_t_ns, 100);
  EXPECT_EQ(canonical.first_diff_index, 1u);
  ASSERT_TRUE(canonical.has_a);
  ASSERT_TRUE(canonical.has_b);
  EXPECT_EQ(canonical.a, sample);
  EXPECT_EQ(canonical.b, changed);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

scenario::ExperimentConfig traced_config(std::uint64_t seed) {
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 50;
  cfg.algorithm = core::Algorithm::kGreedy;
  cfg.duration = sim::Time::seconds(30.0);
  cfg.seed = seed;
  return cfg;
}

TEST(Trace, ExperimentWiringPopulatesFileAndCounters) {
  auto cfg = traced_config(5);
  cfg.trace.path = tmp_path("wsn_trace_exp-{seed}.bin");
  const scenario::RunResult res = scenario::run_experiment(cfg);
  EXPECT_GT(res.trace_counters.total(), 0u);
  EXPECT_GT(res.trace_counters.of(RecordKind::kMacTxStart), 0u);
  EXPECT_GT(res.trace_counters.of(RecordKind::kItemDelivered), 0u);
  EXPECT_GT(res.trace_counters.of(RecordKind::kGradientNew), 0u);

  const std::string path = resolve_trace_path(cfg.trace.path, cfg.seed);
  TraceReader reader{path};
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.header().seed, cfg.seed);
  EXPECT_EQ(reader.header().config_digest, scenario::config_digest(cfg));

  // The file holds exactly the records the counters tallied.
  CounterTable from_file;
  Record r;
  std::int64_t last_t = 0;
  while (reader.next(r)) {
    ++from_file.counts[static_cast<std::size_t>(r.kind)];
    EXPECT_GE(r.t_ns, last_t);  // the event clock is monotone
    last_t = r.t_ns;
  }
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(from_file.counts, res.trace_counters.counts);
  std::remove(path.c_str());
}

TEST(Trace, UntracedRunsKeepCountersAtZero) {
  const scenario::RunResult res = scenario::run_experiment(traced_config(5));
  EXPECT_EQ(res.trace_counters.total(), 0u);
}

TEST(Trace, SameSeedRunsProduceBitIdenticalTraces) {
  auto cfg = traced_config(8);
  cfg.trace.path = tmp_path("wsn_trace_rep_a-{seed}.bin");
  scenario::run_experiment(cfg);
  const std::string pa = resolve_trace_path(cfg.trace.path, cfg.seed);
  cfg.trace.path = tmp_path("wsn_trace_rep_b-{seed}.bin");
  scenario::run_experiment(cfg);
  const std::string pb = resolve_trace_path(cfg.trace.path, cfg.seed);

  const TraceDiff diff = diff_traces(pa, pb);
  ASSERT_TRUE(diff.comparable) << diff.error;
  EXPECT_TRUE(diff.identical);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Trace, ParallelReplicatesTraceBitIdenticalToSerial) {
  // Three replicates, traced per seed via the {seed} placeholder: the
  // WSN_JOBS=4 engine must write byte-identical trace files to the serial
  // loop, seed by seed.
  auto cfg = traced_config(0);  // seed overridden per replicate
  cfg.duration = sim::Time::seconds(20.0);
  cfg.trace.path = tmp_path("wsn_trace_ser-{seed}.bin");
  scenario::run_replicates(cfg, 3, /*seed0=*/11, /*jobs=*/1);
  cfg.trace.path = tmp_path("wsn_trace_par-{seed}.bin");
  scenario::run_replicates(cfg, 3, /*seed0=*/11, /*jobs=*/4);

  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    const std::string ps =
        resolve_trace_path(tmp_path("wsn_trace_ser-{seed}.bin"), seed);
    const std::string pp =
        resolve_trace_path(tmp_path("wsn_trace_par-{seed}.bin"), seed);
    const TraceDiff diff = diff_traces(ps, pp);
    ASSERT_TRUE(diff.comparable) << diff.error;
    EXPECT_TRUE(diff.identical) << "seed " << seed << " diverges at record "
                                << diff.first_diff_index;
    std::remove(ps.c_str());
    std::remove(pp.c_str());
  }
}

TEST(Trace, CountersMatchLayerStats) {
  // Every counted MAC and protocol event is also traced, at the same site:
  // the per-layer stats structs and the per-kind trace tallies must agree
  // across both MACs, both instantiations and the failure process. Failure
  // periods of 30 s never strike inside an interest re-flood window; the
  // off-grid 30.05 s ones do, so nodes die with a re-flood still pending.
  std::uint64_t dropped_items = 0;
  for (const auto mac : {scenario::MacType::kCsma, scenario::MacType::kTdma}) {
    for (const auto alg :
         {core::Algorithm::kOpportunistic, core::Algorithm::kGreedy}) {
      for (const double failure_period_s : {0.0, 30.0, 30.05}) {
        scenario::ExperimentConfig cfg;
        cfg.field.nodes = 200;
        cfg.mac_type = mac;
        cfg.algorithm = alg;
        cfg.failures.enabled = failure_period_s > 0.0;
        if (cfg.failures.enabled) {
          cfg.failures.period = sim::Time::seconds(failure_period_s);
        }
        cfg.duration = sim::Time::seconds(60.0);
        cfg.seed = 3;
        cfg.trace.ring_capacity = 16;  // ring only: counters, no file
        SCOPED_TRACE(::testing::Message()
                     << (mac == scenario::MacType::kCsma ? "csma" : "tdma")
                     << " " << core::to_string(alg) << " failure period "
                     << failure_period_s << " s");
        const scenario::RunResult res = scenario::run_experiment(cfg);
        const CounterTable& c = res.trace_counters;
        const diffusion::ProtocolStats& p = res.protocol;
        EXPECT_GT(res.frames_sent, 0u);
        EXPECT_EQ(res.frames_sent, c.of(RecordKind::kMacTxStart));
        EXPECT_EQ(res.arrivals_corrupted, c.of(RecordKind::kMacCollision));
        EXPECT_EQ(res.drops, c.of(RecordKind::kMacDrop));
        EXPECT_EQ(p.interests_sent, c.of(RecordKind::kInterestSend));
        EXPECT_EQ(p.exploratory_sent, c.of(RecordKind::kExploratorySend));
        EXPECT_EQ(p.data_sent, c.of(RecordKind::kDataSend));
        EXPECT_EQ(p.icm_sent, c.of(RecordKind::kIcmSend));
        EXPECT_EQ(p.reinforcements_sent, c.of(RecordKind::kReinforceSend));
        EXPECT_EQ(p.negatives_sent, c.of(RecordKind::kNegativeSend));
        EXPECT_EQ(p.items_dropped_no_gradient, c.of(RecordKind::kItemDropped));
        // Item notes reach the collector and the trace together: every
        // generation is counted once, and a sink's duplicate arrivals are
        // traced but not counted again.
        EXPECT_EQ(res.metrics.distinct_generated,
                  c.of(RecordKind::kItemGenerated));
        EXPECT_LE(res.metrics.distinct_received,
                  c.of(RecordKind::kItemDelivered));
        dropped_items += p.items_dropped_no_gradient;
      }
    }
  }
  EXPECT_GT(dropped_items, 0u);  // the item.dropped equality is not vacuous
}

TEST(Trace, EnergyTotalsReplacePerTransitionSamples) {
  // Energy is traced once per node and radio state at harvest, never per
  // transition: each node's four residences sum to the run's end time,
  // and exactly the nodes the failure process took down show Off time.
  for (const auto mac : {scenario::MacType::kCsma, scenario::MacType::kTdma}) {
    scenario::ExperimentConfig cfg = traced_config(4);
    cfg.mac_type = mac;
    cfg.duration = sim::Time::seconds(50.0);
    cfg.failures.enabled = true;
    cfg.failures.period = sim::Time::seconds(20.0);
    cfg.trace.path = tmp_path("wsn_trace_energy-{seed}.bin");
    SCOPED_TRACE(mac == scenario::MacType::kCsma ? "csma" : "tdma");
    const scenario::RunResult res = scenario::run_experiment(cfg);
    const std::size_t n = cfg.field.nodes;
    EXPECT_EQ(res.trace_counters.of(RecordKind::kEnergySample), 0u);
    EXPECT_EQ(res.trace_counters.of(RecordKind::kEnergyTotal), 4 * n);

    const std::string path = resolve_trace_path(cfg.trace.path, cfg.seed);
    TraceReader reader{path};
    ASSERT_TRUE(reader.ok()) << reader.error();
    const std::int64_t end = cfg.duration.as_nanos();
    std::vector<std::int64_t> total(n, 0);
    std::vector<std::int64_t> off(n, 0);
    std::vector<char> went_down(n, 0);
    Record r;
    while (reader.next(r)) {
      ASSERT_LT(r.node, n);
      if (r.kind == RecordKind::kNodeDown && r.t_ns < end) {
        went_down[r.node] = 1;
      }
      if (r.kind != RecordKind::kEnergyTotal) continue;
      EXPECT_EQ(r.t_ns, end);
      total[r.node] += static_cast<std::int64_t>(r.b);
      if (r.a == 0) off[r.node] = static_cast<std::int64_t>(r.b);  // kOff
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::size_t downs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(total[i], end) << "node " << i;
      EXPECT_EQ(off[i] > 0, went_down[i] != 0) << "node " << i;
      downs += went_down[i];
    }
    EXPECT_GT(downs, 0u);  // the Off check is not vacuous
    std::remove(path.c_str());
  }
}

#if WSN_AUDIT_ENABLED
TEST(Trace, AuditViolationDumpsTheFlightRecorder) {
  Tracer tracer{Tracer::Options{
      .path = "", .ring_capacity = 8, .seed = 77, .config_digest = 0}};
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.emit(RecordKind::kMacTxStart, sim::Time::nanos(i * 5), 1, 2, i, 0);
  }

  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  set_ring_dump_stream(sink);
  sim::audit::set_abort_on_violation(false);
  WSN_AUDIT_CHECK(false, "trace-test deliberate violation");
  sim::audit::set_abort_on_violation(true);
  set_ring_dump_stream(nullptr);
  sim::audit::reset_violations();

  std::fseek(sink, 0, SEEK_SET);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, sink)) > 0) contents.append(buf, n);
  std::fclose(sink);

  EXPECT_NE(contents.find("flight recorder (seed 77): last 8 of 20 records"),
            std::string::npos)
      << contents;
  EXPECT_NE(contents.find("mac.tx_start"), std::string::npos);
}
#endif

}  // namespace
}  // namespace wsn::trace
