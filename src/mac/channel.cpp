#include "mac/channel.hpp"

#include <type_traits>
#include <utility>

#include "mac/mac_base.hpp"
#include "sim/audit.hpp"
#include "trace/trace.hpp"

namespace wsn::mac {

Transmission* Channel::begin_transmission(net::NodeId src, net::Frame frame,
                                          FrameKind kind, sim::Time airtime) {
  WSN_AUDIT_CHECK(airtime > sim::Time::zero(),
                  "transmission with non-positive airtime");
  WSN_AUDIT_CHECK(radios_[src].alive,
                  "transmission started by a detached or dead node");
  Transmission* tx = nullptr;
  if (free_tx_.empty()) {
    tx = &tx_slots_.emplace_back();
  } else {
    tx = free_tx_.back();
    free_tx_.pop_back();
    tx->aborted = false;
  }
  tx->frame = std::move(frame);
  tx->kind = kind;
  tx->start = sim_->now();
  tx->end = tx->start + airtime;
  tx->id = next_tx_id_++;
  tx->src = src;

  // Two batched events per transmission, however many radios hear it: one
  // sweep delivering every arrival start, one delivering every arrival end.
  sim_->schedule_in(propagation_, [this, tx] { sweep_arrival_starts(*tx); });
  sim_->schedule_in(propagation_ + airtime,
                    [this, tx] { sweep_arrival_ends(*tx); });
  return tx;
}

void Channel::sweep_arrival_starts(const Transmission& tx) {
  // Everyone within carrier-sense range hears the transmission (and pays
  // receive energy for it, charged here up to the arrival's end); only the
  // decodable prefix of the audible list (== nodes within radio range) can
  // decode it. Liveness is sampled here, at delivery time. Every overlap
  // counts one collision per decodable frame it corrupts: the clean victim
  // first, then the newcomer.
  //
  // This loop visits ≈137 radios per frame at the paper's densest point,
  // ≈100 of them past the decodable prefix. The common one there is quiet:
  // alive, holding no clean arrival and not contending. For it the full
  // visit's busy test feeds nothing (no clean arrival to corrupt, no hook
  // to call) and its clean store writes null over null, so it only takes
  // the charge and the busy key. Every other radio — dead, a clean victim
  // or a contender — takes the full visit, whose busy test is bitwise over
  // the hoisted key of the last end sweep and whose rare paths, a collision
  // or a contending radio, sit behind [[unlikely]] calls. Visit, collision
  // and hook order are the audible list's either way.
  const sim::Time now = sim_->now();
  const sim::Time end = tx.end + propagation_;
  const Transmission* const newcomer = &tx;
  const std::uint64_t id = tx.id;
  const std::int64_t last_end = last_end_.as_nanos();
  const std::uint64_t last_id = last_end_id_;
  RadioRecord* const radios = radios_.data();
  MacBase* const* const macs = macs_.data();
  const auto audible = topo_->audible(tx.src);
  const std::size_t prefix = topo_->decodable_prefix(tx.src);
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kChannelSweep, tx.src,
                 trace::kNoPeer, id, audible.size());
  // Charges the arrival and takes the busy key, whose end is `rx.until`:
  // the newest id wins a tie on end, so this is the larger key.
  const auto take = [&](RadioRecord& r) {
    r.busy_id = end >= r.rx.until ? id : r.busy_id;
    r.rx.arrive(now, end);
  };
  // `decodable` is a compile-time constant in each half of the list.
  const auto visit = [&](RadioRecord& r, net::NodeId nb, auto decodable) {
    if (!r.alive) return;
    const std::int64_t busy_end = r.rx.until.as_nanos();
    // transmitting || end_pending(busy key), without short-circuit jumps.
    const bool was_busy = r.transmitting | (busy_end > last_end) |
                          ((busy_end == last_end) & (r.busy_id > last_id));
    if (r.clean != nullptr) [[unlikely]] {
      count_collision(macs[nb], *r.clean);
    }
    if constexpr (decltype(decodable)::value) {
      r.clean = was_busy ? nullptr : newcomer;
      if (was_busy) [[unlikely]] count_collision(macs[nb], *newcomer);
    } else {
      r.clean = nullptr;
    }
    take(r);
    WSN_AUDIT_CHECK(r.clean == nullptr ||
                        (r.clean->id == r.busy_id && !r.transmitting),
                    "clean arrival that is not the busy key, or overlaps "
                    "our own transmission");
    if (!was_busy & r.contending) [[unlikely]] became_busy(macs[nb]);
  };
  for (std::size_t i = 0; i < prefix; ++i) {
    visit(radios[audible[i]], audible[i], std::true_type{});
  }
  for (std::size_t i = prefix; i < audible.size(); ++i) {
    RadioRecord& r = radios[audible[i]];
    if (r.alive & (r.clean == nullptr) & !r.contending) [[likely]] {
      take(r);
    } else {
      visit(r, audible[i], std::false_type{});
    }
  }
}

void Channel::count_collision(MacBase* mac, const Transmission& tx) {
  mac->count_collision(tx);
}

void Channel::became_busy(MacBase* mac) { mac->medium_became_busy(); }

void Channel::sweep_arrival_ends(Transmission& tx) {
  // Only two kinds of radio need their MAC here: the one whose clean
  // arrival this is, if the frame is addressed to it or broadcast, and a
  // contending one whose medium this end makes idle. Everyone else charged
  // its receive time at the start sweep; an overheard unicast or ACK only
  // clears the clean arrival.
  WSN_AUDIT_CHECK(end_pending(sim_->now(), tx.id),
                  "end sweeps out of (end, tx id) order");
  WSN_AUDIT_CHECK(sim_->now() == tx.end + propagation_,
                  "end sweep away from the arrival's end");
  last_end_ = sim_->now();
  last_end_id_ = tx.id;
  // A clean arrival is decodable, so its receiver sits in the decodable
  // prefix, where the topology's reverse slots say where the sender sits in
  // the receiver's neighbour list: the slot travels up with the frame.
  const auto audible = topo_->audible(tx.src);
  const auto from_slots = topo_->reverse_slots(tx.src);
  const net::NodeId dst = tx.frame.dst;
  for (std::size_t i = 0; i < audible.size(); ++i) {
    const net::NodeId nb = audible[i];
    RadioRecord& r = radios_[nb];
    WSN_AUDIT_CHECK(r.alive || (r.clean == nullptr && r.busy_id == 0 &&
                                r.rx.until == sim::Time::zero() &&
                                !r.contending && !r.transmitting),
                    "dead radio still holds receive state");
    if (r.clean == &tx) {
      WSN_AUDIT_CHECK(r.busy_id == tx.id && !r.transmitting,
                      "clean arrival ending under another or our own carrier");
      WSN_AUDIT_CHECK(i < from_slots.size(),
                      "clean arrival outside the decodable prefix");
      r.clean = nullptr;
      if (!tx.aborted && (dst == nb || dst == net::kBroadcast)) {
        macs_[nb]->deliver(tx, from_slots[i]);
      }
    }
    if (r.contending && r.busy_id == tx.id && !r.transmitting) {
      macs_[nb]->medium_became_idle();
    }
  }
  // The transmitter lets go at its frame's end or power-down, before
  // anything can transmit again (see `MacBase::outgoing_tx_`).
  tx.frame.payload.reset();
  free_tx_.push_back(&tx);
}

}  // namespace wsn::mac
