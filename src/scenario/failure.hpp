// Node-failure model and rotation process of paper §5.3.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac_base.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wsn::scenario {

/// Node-failure model of §5.3: every `period`, revive the previous victims
/// and turn off `fraction` of the remaining nodes — no settling time.
struct FailureModel {
  bool enabled = false;
  double fraction = 0.2;
  sim::Time period = sim::Time::seconds(30.0);
  /// Sources and sinks are never turned off, so the workload itself
  /// survives (reconstruction `[R]`; the paper does not state this but the
  /// metrics are meaningless if the only sink dies).
  bool protect_endpoints = true;
};

/// Throws std::invalid_argument, naming each bad field, when an enabled model
/// has a `period` ≤ 0 (the rotation would reschedule itself at the same
/// instant forever) or a `fraction` outside [0, 1]. A disabled model is
/// always valid.
void validate(const FailureModel& model);

/// Drives the §5.3 failure process for the lifetime of a run.
///
/// Rotation semantics: the previous victims are revived *before* the new
/// victim set is drawn, so every non-protected node is eligible each round
/// and a node can be unlucky in consecutive rotations. Victim choice is a
/// pure function of the rng stream handed in (fork 3 of the experiment
/// seed), independent of wall time or node state.
class FailureProcess {
 public:
  FailureProcess(sim::Simulator& sim, std::vector<mac::MacBase*> macs,
                 std::vector<char> protected_nodes, const FailureModel& model,
                 sim::Rng rng);

  FailureProcess(const FailureProcess&) = delete;
  FailureProcess& operator=(const FailureProcess&) = delete;

  /// Nodes currently powered off, in the order they were struck.
  [[nodiscard]] const std::vector<net::NodeId>& down_nodes() const {
    return down_;
  }
  /// Rotations performed so far.
  [[nodiscard]] std::uint64_t rotations() const { return rotations_; }

 private:
  void schedule_next(sim::Time in);
  void rotate();

  sim::Simulator* sim_;
  std::vector<mac::MacBase*> macs_;
  std::vector<char> protected_;
  FailureModel model_;
  sim::Rng rng_;
  std::vector<net::NodeId> down_;
  std::uint64_t rotations_ = 0;
};

}  // namespace wsn::scenario
