#include "scenario/failure.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/trace.hpp"

namespace wsn::scenario {

void validate(const FailureModel& model) {
  if (!model.enabled) return;
  std::string problems;
  if (model.period <= sim::Time::zero()) {
    problems = "failures.period must be > 0 when failures are enabled (got " +
               std::to_string(model.period.as_nanos()) + " ns)";
  }
  if (!(model.fraction >= 0.0 && model.fraction <= 1.0)) {
    if (!problems.empty()) problems += "; ";
    problems += "failures.fraction must lie in [0, 1] (got " +
                std::to_string(model.fraction) + ")";
  }
  if (!problems.empty()) throw std::invalid_argument{problems};
}

FailureProcess::FailureProcess(sim::Simulator& sim,
                               std::vector<mac::MacBase*> macs,
                               std::vector<char> protected_nodes,
                               const FailureModel& model, sim::Rng rng)
    : sim_{&sim},
      macs_{std::move(macs)},
      protected_{std::move(protected_nodes)},
      model_{model},
      rng_{rng} {
  validate(model_);
  if (model_.enabled) schedule_next(model_.period);
}

void FailureProcess::schedule_next(sim::Time in) {
  sim_->schedule_in(in, [this] { rotate(); });
}

void FailureProcess::rotate() {
  // Revive-before-draw: last round's victims rejoin the eligible pool
  // before this round's are chosen.
  for (net::NodeId id : down_) {
    macs_[id]->set_alive(true);
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kNodeUp, id, trace::kNoPeer, 0, 0);
  }
  down_.clear();

  std::vector<net::NodeId> eligible;
  for (net::NodeId id = 0; id < macs_.size(); ++id) {
    if (!model_.protect_endpoints || !protected_[id]) eligible.push_back(id);
  }
  const auto victims = static_cast<std::size_t>(
      model_.fraction * static_cast<double>(macs_.size()) + 0.5);
  rng_.shuffle(eligible);
  for (std::size_t i = 0; i < std::min(victims, eligible.size()); ++i) {
    macs_[eligible[i]]->set_alive(false);
    WSN_TRACE_EMIT(sim_, trace::RecordKind::kNodeDown, eligible[i],
                   trace::kNoPeer, 0, 0);
    down_.push_back(eligible[i]);
  }
  ++rotations_;
  schedule_next(model_.period);
}

}  // namespace wsn::scenario
