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
  WSN_AUDIT_CHECK(macs_[src] != nullptr && macs_[src]->alive(),
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
  // receive energy for it); only the decodable prefix of the audible list
  // (== nodes within radio range) can decode it. Liveness is sampled here,
  // at delivery time.
  WSN_AUDIT_CHECK(tx->id > last_start_swept_,
                  "arrival-start sweeps out of transmission order");
  last_start_swept_ = tx->id;
  const auto audible = topo_->audible(tx->src);
  const std::size_t prefix = topo_->decodable_prefix(tx->src);
  WSN_TRACE_EMIT(sim_, trace::RecordKind::kChannelSweep, tx->src,
                 trace::kNoPeer, tx->id, audible.size());
  for (std::size_t i = 0; i < audible.size(); ++i) {
    MacBase* mac = macs_[audible[i]];
    if (mac == nullptr || !mac->alive()) continue;
    mac->arrival_start(tx, /*decodable=*/i < prefix);
  }
}

void Channel::sweep_arrival_ends(const TransmissionPtr& tx) {
  for (net::NodeId nb : topo_->audible(tx->src)) {
    MacBase* mac = macs_[nb];
    if (mac == nullptr || !mac->alive()) continue;
    mac->arrival_end(tx);
  }
}

}  // namespace wsn::mac
