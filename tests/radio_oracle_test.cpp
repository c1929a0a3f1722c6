// Trace-replay receive oracle. From a traced run's node positions, radio
// ranges, propagation delay and PHY timing, plus its transmit, channel
// sweep and power records, it recomputes every arrival window and every
// overlap from first principles, then checks the run's `mac.rx` and
// `mac.collision` records and each node's four `energy.total` residences
// (exact, in integer ns) against them. It shares no code with the receive
// path it checks.
//
// The PHY it models: a frame from `src` begun at `a` with airtime `air`
// reaches every radio within carrier-sense range as the window
// [a + prop, a + prop + air), decodable within radio range. A radio takes
// an arrival in if it is alive when the arrival's start sweep runs; a
// power-down forgets every arrival taken in. There is no capture: any two
// arrivals taken in that overlap corrupt each other, and so does our own
// transmission. A corrupted decodable arrival counts one collision, at the
// start of the arrival that overlapped it first (its own start, when the
// radio was already busy). Same-instant order comes from record order; an
// end sweep has no record, but it always precedes a start sweep at the
// same instant (it was scheduled when its frame began, which was earlier).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "net/types.hpp"
#include "net/vec2.hpp"
#include "scenario/experiment.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"

namespace wsn {
namespace {

using trace::Record;
using trace::RecordKind;

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// One reception or collision: (node, tx id, time ns).
using Outcome = std::tuple<std::uint32_t, std::uint64_t, std::int64_t>;

/// One of a node's own transmissions, from its `mac.tx_start` record.
struct OwnTx {
  std::uint64_t id = 0;
  std::size_t start_index = 0;  ///< record index of `mac.tx_start`
  std::int64_t start = 0;
  std::int64_t airtime = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  bool ack = false;
  /// Record index of its `mac.tx_end` or of the `node.down` that cut it
  /// short; kNever while still on the air at the horizon.
  std::size_t end_index = kNever;
  std::int64_t end = 0;  ///< when the radio stopped transmitting it
  bool aborted = false;  ///< a data frame cut short by its sender's death
};

/// A frame reaching one radio that was alive at its start sweep.
struct Arrival {
  std::size_t tx = 0;     ///< index into the run's OwnTx list
  std::size_t sweep = 0;  ///< record index of the start sweep
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool decodable = false;
  int epoch = 0;  ///< power-downs of the radio before the start sweep
};

struct NodeLog {
  std::vector<std::size_t> txs;  ///< own transmissions, in start order
  std::vector<Arrival> arrivals;  ///< in start-sweep order
  std::vector<std::int64_t> downs;
  std::vector<std::int64_t> ups;
  std::array<std::int64_t, 4> residence{};  ///< from `energy.total`
  int residences_seen = 0;
};

/// Measure of a union of half-open intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> v) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t covered = std::numeric_limits<std::int64_t>::min();
  for (auto [lo, hi] : v) {
    lo = std::max(lo, covered);
    if (hi > lo) {
      total += hi - lo;
      covered = hi;
    }
  }
  return total;
}

std::string show(const Outcome& o) {
  return "node " + std::to_string(std::get<0>(o)) + " tx " +
         std::to_string(std::get<1>(o)) + " at " +
         std::to_string(std::get<2>(o)) + " ns";
}

/// Fails with the first few outcomes found on one side only.
void expect_same(std::vector<Outcome> want, std::vector<Outcome> got,
                 const char* what) {
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  std::vector<Outcome> missing;
  std::vector<Outcome> extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  EXPECT_TRUE(missing.empty() && extra.empty())
      << what << ": " << missing.size() << " expected but not traced (first: "
      << (missing.empty() ? "-" : show(missing.front())) << "), "
      << extra.size() << " traced but not expected (first: "
      << (extra.empty() ? "-" : show(extra.front())) << ")";
}

struct OracleCase {
  scenario::MacType mac = scenario::MacType::kCsma;
  bool failures = false;
  std::uint64_t seed = 1;
};

scenario::ExperimentConfig oracle_config(const OracleCase& c) {
  scenario::ExperimentConfig cfg;
  cfg.field.nodes = 70;
  cfg.mac_type = c.mac;
  cfg.failures.enabled = c.failures;
  cfg.failures.period = sim::Time::seconds(1.0);  // many power cycles
  cfg.duration = sim::Time::seconds(30.0);
  cfg.seed = c.seed;
  return cfg;
}

/// Checks one traced run against the oracle.
void check_run(const scenario::ExperimentConfig& cfg,
               const scenario::RunResult& res, const std::string& path) {
  const mac::PhyParams& phy = cfg.phy;
  const std::int64_t prop = phy.propagation.as_nanos();
  const std::int64_t horizon = cfg.duration.as_nanos();
  const std::vector<net::Vec2>& pos = res.node_positions;
  const std::size_t n = pos.size();
  const double range = cfg.field.radio_range_m;
  const double cs = cfg.field.carrier_sense_range_m > 0.0
                        ? cfg.field.carrier_sense_range_m
                        : range;

  trace::TraceReader reader{path};
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::vector<Record> recs;
  for (Record r; reader.next(r);) recs.push_back(r);
  ASSERT_TRUE(reader.ok()) << reader.error();

  std::vector<OwnTx> txs;
  std::vector<std::size_t> tx_by_id;  ///< tx id -> index into txs
  std::vector<NodeLog> nodes(n);
  std::vector<char> alive(n, 1);
  std::vector<std::size_t> on_air(n, kNever);  ///< open own tx per node
  std::vector<Outcome> got_rx;
  std::vector<Outcome> got_collisions;
  std::size_t sweeps = 0;

  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    switch (r.kind) {
      case RecordKind::kMacTxStart: {
        ASSERT_TRUE(alive[r.node]) << "dead node " << r.node << " transmits";
        ASSERT_EQ(on_air[r.node], kNever) << "node " << r.node
                                          << " starts a frame mid-frame";
        OwnTx tx;
        tx.id = r.a;
        tx.start_index = i;
        tx.start = r.t_ns;
        tx.src = r.node;
        tx.dst = r.peer;
        tx.ack = r.b == 0;  // ACKs carry no payload; data frames always do
        tx.airtime = tx.ack ? phy.ack_airtime().as_nanos()
                            : phy.frame_airtime(static_cast<std::uint32_t>(
                                                    r.b))
                                  .as_nanos();
        if (tx_by_id.size() <= r.a) tx_by_id.resize(r.a + 1, kNever);
        tx_by_id[r.a] = txs.size();
        on_air[r.node] = txs.size();
        nodes[r.node].txs.push_back(txs.size());
        txs.push_back(tx);
        break;
      }
      case RecordKind::kMacTxEnd: {
        ASSERT_NE(on_air[r.node], kNever);
        OwnTx& tx = txs[on_air[r.node]];
        EXPECT_EQ(r.t_ns, tx.start + tx.airtime) << "airtime of node "
                                                 << r.node;
        EXPECT_EQ(r.a == 0, tx.ack);
        tx.end_index = i;
        tx.end = r.t_ns;
        on_air[r.node] = kNever;
        break;
      }
      case RecordKind::kNodeDown: {
        alive[r.node] = 0;
        nodes[r.node].downs.push_back(r.t_ns);
        if (on_air[r.node] != kNever) {
          OwnTx& tx = txs[on_air[r.node]];
          tx.end_index = i;
          tx.end = r.t_ns;
          tx.aborted = !tx.ack;
          on_air[r.node] = kNever;
        }
        break;
      }
      case RecordKind::kNodeUp:
        alive[r.node] = 1;
        nodes[r.node].ups.push_back(r.t_ns);
        break;
      case RecordKind::kChannelSweep: {
        ++sweeps;
        ASSERT_LT(r.a, tx_by_id.size());
        const std::size_t t = tx_by_id[r.a];
        ASSERT_NE(t, kNever);
        const OwnTx& tx = txs[t];
        EXPECT_EQ(r.node, tx.src);
        EXPECT_EQ(r.t_ns, tx.start + prop);
        std::uint64_t audible = 0;
        for (std::uint32_t rx = 0; rx < n; ++rx) {
          if (rx == tx.src) continue;
          const double d_sq = net::distance_sq(pos[tx.src], pos[rx]);
          if (!(d_sq < cs * cs)) continue;
          ++audible;
          if (!alive[rx]) continue;
          nodes[rx].arrivals.push_back(Arrival{
              .tx = t,
              .sweep = i,
              .start = r.t_ns,
              .end = r.t_ns + tx.airtime,
              .decodable = d_sq < range * range,
              .epoch = static_cast<int>(nodes[rx].downs.size())});
        }
        EXPECT_EQ(r.b, audible) << "audible count of tx " << r.a;
        break;
      }
      case RecordKind::kMacRx:
        got_rx.emplace_back(r.node, r.a, r.t_ns);
        break;
      case RecordKind::kMacCollision:
        got_collisions.emplace_back(r.node, r.a, r.t_ns);
        break;
      case RecordKind::kEnergyTotal:
        ASSERT_LT(r.a, 4u);
        nodes[r.node].residence[r.a] = static_cast<std::int64_t>(r.b);
        ++nodes[r.node].residences_seen;
        break;
      default:
        break;
    }
  }
  for (std::size_t t : on_air) {
    if (t == kNever) continue;
    txs[t].end = std::min(txs[t].start + txs[t].airtime, horizon);
  }
  ASSERT_GT(sweeps, 0u);

  std::vector<Outcome> want_rx;
  std::vector<Outcome> want_collisions;
  // Receptions whose end sweep shares its instant with the receiver's own
  // tx start or power-down: the end sweep has no record to order them by.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ambiguous;
  constexpr std::int64_t kNoTime = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t id = 0; id < n; ++id) {
    const NodeLog& node = nodes[id];
    const auto& arr = node.arrivals;
    // When the radio forgets the arrivals taken in during `epoch`.
    const auto next_down = [&](int epoch) {
      const auto e = static_cast<std::size_t>(epoch);
      return e < node.downs.size() ? node.downs[e] : kNoTime;
    };

    std::vector<std::pair<std::int64_t, std::int64_t>> rx_windows;
    std::size_t next_own = 0;  // first own tx started after this sweep
    std::int64_t in_flight_until = 0;  // latest end this power epoch
    int epoch = 0;
    for (std::size_t k = 0; k < arr.size(); ++k) {
      const Arrival& x = arr[k];
      const OwnTx& tx = txs[x.tx];
      rx_windows.emplace_back(
          x.start, std::min({x.end, next_down(x.epoch), horizon}));
      while (next_own < node.txs.size() &&
             txs[node.txs[next_own]].start_index < x.sweep) {
        ++next_own;
      }
      const OwnTx* own = next_own < node.txs.size()
                             ? &txs[node.txs[next_own]]
                             : nullptr;
      const bool transmitting =
          next_own > 0 && txs[node.txs[next_own - 1]].end_index > x.sweep;
      if (x.epoch != epoch) {
        epoch = x.epoch;
        in_flight_until = 0;
      }
      // Busy at the start sweep: our own carrier, or an earlier arrival of
      // this power epoch still in flight (one ending now has been swept).
      const bool busy = transmitting || in_flight_until > x.start;
      in_flight_until = std::max(in_flight_until, x.end);
      if (!x.decodable) continue;
      if (busy) {
        want_collisions.emplace_back(id, tx.id, x.start);
        continue;
      }
      // Clean at its start. The next arrival of this power epoch corrupts
      // it if it starts before it ends, unless our own transmission
      // cleared it first.
      const bool next_overlaps = k + 1 < arr.size() &&
                                 arr[k + 1].epoch == x.epoch &&
                                 arr[k + 1].start < x.end;
      if (next_overlaps) {
        if (own == nullptr || own->start_index > arr[k + 1].sweep) {
          want_collisions.emplace_back(id, tx.id, arr[k + 1].start);
        }
        continue;
      }
      if (tx.ack || tx.aborted || x.end > horizon) continue;
      if (tx.dst != id && tx.dst != net::kBroadcast) continue;
      const std::int64_t cut =
          std::min(next_down(x.epoch), own == nullptr ? kNoTime : own->start);
      if (cut < x.end) continue;  // forgotten, or our own carrier began
      if (cut == x.end) {
        ambiguous.emplace_back(id, tx.id);
        continue;
      }
      want_rx.emplace_back(id, tx.id, x.end);
    }

    // Residences: Off from the power records, Tx from our own frames, Rx
    // the arrivals' union outside Tx, Idle the rest.
    ASSERT_EQ(node.residences_seen, 4) << "node " << id;
    ASSERT_TRUE(node.ups.size() == node.downs.size() ||
                node.ups.size() + 1 == node.downs.size());
    std::int64_t off = 0;
    for (std::size_t d = 0; d < node.downs.size(); ++d) {
      off += (d < node.ups.size() ? node.ups[d] : horizon) - node.downs[d];
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> tx_windows;
    for (std::size_t t : node.txs) {
      tx_windows.emplace_back(txs[t].start, std::min(txs[t].end, horizon));
    }
    const std::int64_t tx_ns = union_ns(tx_windows);
    rx_windows.insert(rx_windows.end(), tx_windows.begin(), tx_windows.end());
    const std::int64_t rx_ns = union_ns(rx_windows) - tx_ns;
    const std::array<std::int64_t, 4> want{off, horizon - off - tx_ns - rx_ns,
                                           rx_ns, tx_ns};
    EXPECT_EQ(node.residence, want)
        << "node " << id << " residences Off/Idle/Rx/Tx: traced "
        << node.residence[0] << "/" << node.residence[1] << "/"
        << node.residence[2] << "/" << node.residence[3] << ", oracle "
        << want[0] << "/" << want[1] << "/" << want[2] << "/" << want[3];
  }

  std::sort(ambiguous.begin(), ambiguous.end());
  std::erase_if(got_rx, [&](const Outcome& o) {
    return std::binary_search(
        ambiguous.begin(), ambiguous.end(),
        std::pair{std::get<0>(o), std::get<1>(o)});
  });
  EXPECT_GT(want_rx.size(), 0u);
  expect_same(want_rx, got_rx, "mac.rx");
  expect_same(want_collisions, got_collisions, "mac.collision");
}

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  return std::string{c.mac == scenario::MacType::kCsma ? "csma" : "tdma"} +
         (c.failures ? "_failures_" : "_steady_") + std::to_string(c.seed);
}

class RadioOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(RadioOracle, ReceptionsCollisionsAndResidencesMatchTheTrace) {
  scenario::ExperimentConfig cfg = oracle_config(GetParam());
  cfg.trace.path = ::testing::TempDir() + "wsn_oracle_" +
                   case_name({GetParam(), 0}) + "-{seed}.bin";
  const scenario::RunResult res = scenario::run_experiment(cfg);
  const std::string path = trace::resolve_trace_path(cfg.trace.path, cfg.seed);
  check_run(cfg, res, path);
  std::remove(path.c_str());
}

std::vector<OracleCase> cases(std::vector<bool> failures, std::uint64_t seeds) {
  std::vector<OracleCase> out;
  for (auto mac : {scenario::MacType::kCsma, scenario::MacType::kTdma}) {
    for (bool f : failures) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        out.push_back(OracleCase{mac, f, seed});
      }
    }
  }
  return out;
}

// Short tier, run by ctest: both MACs with failures on, three seeds.
INSTANTIATE_TEST_SUITE_P(Short, RadioOracle,
                         ::testing::ValuesIn(cases({true}, 3)), case_name);

// Long tier, run in CI under the sanitizers with
// --gtest_also_run_disabled_tests: ten seeds, both MACs, failures on/off.
INSTANTIATE_TEST_SUITE_P(DISABLED_Long, RadioOracle,
                         ::testing::ValuesIn(cases({false, true}, 10)),
                         case_name);

}  // namespace
}  // namespace wsn
