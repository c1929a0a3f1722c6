// Shared wireless medium: delivers transmissions to in-range radios.
#pragma once

#include <cstdint>
#include <deque>
#include <tuple>
#include <vector>

#include "mac/energy.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"

namespace wsn::mac {

class MacBase;

/// Frame classes on the air.
enum class FrameKind : std::uint8_t { kData, kAck };

/// One transmission in flight, in a slot the channel owns. The transmitter
/// keeps a plain pointer to its data frame so a late abort (transmitter dies
/// mid-frame) corrupts every pending reception, and drops it when its frame
/// ends or it powers down. The end sweep releases the payload and frees the
/// slot for the next transmission.
struct Transmission {
  net::Frame frame;
  FrameKind kind = FrameKind::kData;
  sim::Time start;
  sim::Time end;
  bool aborted = false;
  std::uint64_t id = 0;
  net::NodeId src = 0;  ///< transmitter; keys the arrival sweeps
};

/// Everything the channel sweeps read and write for one radio, packed so a
/// sweep walks one 48-byte array entry instead of the MAC objects. `MacBase`
/// keeps a pointer to its own record; these are the only copies of its
/// flags.
struct RadioRecord {
  /// Busy key (`rx.until`, busy_id): the latest-ending arrival taken in
  /// since the radio last powered up, the newer id winning a tie on end.
  /// The medium is busy while its end sweep is pending
  /// (`Channel::end_pending`). The key's end is the receive charge's
  /// `until`, kept once: both start at zero, a start sweep raises both to
  /// max(old, end), our own transmission touches neither, and power-down
  /// sets both back to zero.
  std::uint64_t busy_id = 0;
  /// The one arrival that can still be delivered, or null. Its id is the
  /// busy key's. Never dangles: cleared at its own end sweep, by any
  /// overlap, by our own transmission and at power-down.
  const Transmission* clean = nullptr;
  RxCharge rx;
  bool alive = false;  ///< false until a MAC attaches
  bool transmitting = false;
  /// Set by the access policy while it waits for an idle medium; only a
  /// contending radio hears `medium_became_busy`/`medium_became_idle`.
  bool contending = false;
};
static_assert(sizeof(RadioRecord) <= 48, "one radio's sweep state grew");

/// Broadcast medium over a unit-disk topology.
///
/// When a MAC starts transmitting, every live in-range radio sees the
/// carrier for the frame's airtime; overlapping arrivals at a receiver
/// corrupt each other (no capture). Interference range equals radio range.
///
/// End sweeps dispatch in (end, tx id) order: one end event per
/// transmission, scheduled in id order, and same-instant events are FIFO.
/// So a radio's medium is busy exactly while it transmits or the end sweep
/// of its busy key has not run, which one comparison with the key of the
/// last end sweep decides — no per-radio count of arrivals in flight.
class Channel {
 public:
  Channel(sim::Simulator& sim, const net::Topology& topo,
          sim::Time propagation)
      : sim_{&sim},
        topo_{&topo},
        propagation_{propagation},
        macs_(topo.node_count(), nullptr),
        radios_(topo.node_count()) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers the MAC serving `id`, alive, and returns its radio record,
  /// which lives as long as the channel. Must be called for every node
  /// before the simulation starts.
  RadioRecord* attach(net::NodeId id, MacBase* mac) {
    macs_[id] = mac;
    radios_[id].alive = true;
    return &radios_[id];
  }

  /// Starts a transmission from `src`. Exactly TWO events are scheduled —
  /// an arrival-start sweep after the propagation delay and an arrival-end
  /// sweep one airtime later — each visiting every audible radio in the
  /// topology's partitioned audible-list order (decodable neighbours
  /// first, then carrier-sense-only, both by ascending id). Dead or
  /// detached radios are skipped. Returns the in-flight record so the
  /// transmitter can abort it (node failure mid-frame); it stays valid until
  /// the end sweep, after which the channel reuses the slot.
  Transmission* begin_transmission(net::NodeId src, net::Frame frame,
                                   FrameKind kind, sim::Time airtime);

  [[nodiscard]] const net::Topology& topology() const { return *topo_; }

  /// Whether the end sweep of the arrival keyed (end, id) is still to run.
  [[nodiscard]] bool end_pending(sim::Time end, std::uint64_t id) const {
    return std::tie(end, id) > std::tie(last_end_, last_end_id_);
  }

 private:
  void sweep_arrival_starts(const Transmission& tx);
  void sweep_arrival_ends(Transmission& tx);
  // The start sweep's rare paths, kept out of its loop body.
  [[gnu::noinline]] static void count_collision(MacBase* mac,
                                                const Transmission& tx);
  [[gnu::noinline]] static void became_busy(MacBase* mac);

  sim::Simulator* sim_;
  const net::Topology* topo_;
  sim::Time propagation_;
  std::vector<MacBase*> macs_;
  std::vector<RadioRecord> radios_;  ///< by node id; never resized
  /// Every transmission slot ever used (a deque never moves its elements)
  /// and the ones free for reuse; in-flight ones die with the channel.
  std::deque<Transmission> tx_slots_;
  std::vector<Transmission*> free_tx_;
  std::uint64_t next_tx_id_ = 1;
  /// Key (end, tx id) of the last end sweep that ran.
  sim::Time last_end_;
  std::uint64_t last_end_id_ = 0;
};

}  // namespace wsn::mac
