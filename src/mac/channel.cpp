#include "mac/channel.hpp"

#include <utility>

#include "mac/mac_base.hpp"
#include "sim/audit.hpp"
#include "trace/trace.hpp"

namespace wsn::mac {

TransmissionPtr Channel::begin_transmission(net::NodeId src, net::Frame frame,
                                            FrameKind kind,
                                            sim::Time airtime) {
  WSN_AUDIT_CHECK(airtime > sim::Time::zero(),
                  "transmission with non-positive airtime");
  WSN_AUDIT_CHECK(radios_[src].alive,
                  "transmission started by a detached or dead node");
  auto tx = sim_->arena().make<Transmission>();
  tx->frame = std::move(frame);
  tx->kind = kind;
  tx->start = sim_->now();
  tx->end = tx->start + airtime;
  tx->id = next_tx_id_++;
  tx->src = src;

  // Two batched events per transmission, however many radios hear it: one
  // sweep delivering every arrival start, one delivering every arrival end.
  sim_->schedule_in(propagation_, [this, tx] { sweep_arrival_starts(tx); });
  sim_->schedule_in(propagation_ + airtime,
                    [this, tx] { sweep_arrival_ends(tx); });
  return tx;
}

void Channel::sweep_arrival_starts(const TransmissionPtr& tx) {
  // Everyone within carrier-sense range hears the transmission (and pays
  // receive energy for it, charged here up to the arrival's end); only the
  // decodable prefix of the audible list (== nodes within radio range) can
  // decode it. Liveness is sampled here, at delivery time. Every overlap
  // counts one collision per decodable frame it corrupts: the clean victim
  // first, then the newcomer.
  const sim::Time now = sim_->now();
  const sim::Time end = tx->end + propagation_;
  const auto audible = topo_->audible(tx->src);
  const std::size_t prefix = topo_->decodable_prefix(tx->src);
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kChannelSweep, tx->src,
                 trace::kNoPeer, tx->id, audible.size());
  for (std::size_t i = 0; i < audible.size(); ++i) {
    RadioRecord& r = radios_[audible[i]];
    if (!r.alive) continue;
    const bool decodable = i < prefix;
    const bool was_busy = r.transmitting || end_pending(r.busy_end, r.busy_id);
    if (r.clean != nullptr) {
      macs_[audible[i]]->count_collision(*r.clean);
      r.clean = nullptr;
    }
    if (decodable) {
      if (was_busy) {
        macs_[audible[i]]->count_collision(*tx);
      } else {
        r.clean = tx.get();
      }
    }
    r.rx.arrive(now, end);
    // The newest id wins a tie on end, so this is the larger key.
    if (end >= r.busy_end) {
      r.busy_end = end;
      r.busy_id = tx->id;
    }
    WSN_AUDIT_CHECK(r.clean == nullptr ||
                        (r.clean->id == r.busy_id && !r.transmitting),
                    "clean arrival that is not the busy key, or overlaps "
                    "our own transmission");
    if (!was_busy && r.contending) macs_[audible[i]]->medium_became_busy();
  }
}

void Channel::sweep_arrival_ends(const TransmissionPtr& tx) {
  // Only two kinds of radio need their MAC here: the one whose clean
  // arrival this is, and a contending one whose medium this end makes
  // idle. Everyone else charged its receive time at the start sweep.
  WSN_AUDIT_CHECK(end_pending(sim_->now(), tx->id),
                  "end sweeps out of (end, tx id) order");
  WSN_AUDIT_CHECK(sim_->now() == tx->end + propagation_,
                  "end sweep away from the arrival's end");
  last_end_ = sim_->now();
  last_end_id_ = tx->id;
  for (net::NodeId nb : topo_->audible(tx->src)) {
    RadioRecord& r = radios_[nb];
    WSN_AUDIT_CHECK(r.alive || (r.clean == nullptr && r.busy_id == 0 &&
                                !r.contending && !r.transmitting),
                    "dead radio still holds receive state");
    if (r.clean == tx.get()) {
      WSN_AUDIT_CHECK(r.busy_id == tx->id && !r.transmitting,
                      "clean arrival ending under another or our own carrier");
      r.clean = nullptr;
      if (!tx->aborted) macs_[nb]->deliver(*tx);
    }
    if (r.contending && r.busy_id == tx->id && !r.transmitting) {
      macs_[nb]->medium_became_idle();
    }
  }
}

}  // namespace wsn::mac
