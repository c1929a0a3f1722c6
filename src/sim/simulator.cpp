#include "sim/simulator.hpp"

namespace wsn::sim {

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t dispatched_this_run = 0;
  while (queue_.run_next(until, now_)) {
    ++dispatched_;
    ++dispatched_this_run;
  }
  if (until != Time::max() && now_ < until) now_ = until;
  return dispatched_this_run;
}

}  // namespace wsn::sim
