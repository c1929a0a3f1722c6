// The simulated protocol stack of paper §5.1: one shared radio channel, one
// MAC per node and one directed-diffusion node per MAC.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "diffusion/node.hpp"
#include "mac/channel.hpp"
#include "mac/mac_base.hpp"
#include "net/topology.hpp"
#include "scenario/experiment.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace wsn::scenario {

/// Builds and owns the stack over `topology`: the channel, then every MAC
/// (`config.mac_type`; TDMA gets one slot per node), then every diffusion
/// node (`config.algorithm`). MAC `id` draws from `master.fork(1000 + id)`
/// and node `id` from `master.fork(2000 + id)`.
///
/// The MACs share one allocation and the nodes a second, built in the
/// topology's cell order, so objects of nearby nodes sit together; every
/// id-indexed view (`mac`, `node`, `macs`, the channel's, `start`) keeps id
/// order. Building the stack draws nothing and, for CSMA, schedules
/// nothing (a TDMA MAC arms its first slot, at a time of its own), so the
/// construction order moves no result. Callers give nodes their roles, then
/// call start().
///
/// Every node notes its items to `metrics` (none when null). `sim`,
/// `topology` and `metrics` must outlive the network; the config and the
/// master stream are not kept.
class Network {
 public:
  Network(sim::Simulator& sim, const net::Topology& topology,
          const ExperimentConfig& config, const sim::Rng& master,
          stats::MetricsCollector* metrics);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return macs_.size(); }
  [[nodiscard]] mac::MacBase& mac(net::NodeId id) { return *macs_[id]; }
  [[nodiscard]] diffusion::DiffusionNode& node(net::NodeId id) {
    return *nodes_[id];
  }
  /// Every MAC, by id.
  [[nodiscard]] std::span<mac::MacBase* const> macs() { return macs_; }

  /// Starts every node's periodic maintenance, in id order.
  void start();

 private:
  /// Objects of one class, one slot each, in allocations of at most 1 MiB
  /// (one allocation on the paper's fields), built in slot order and
  /// destroyed in reverse.
  /// Under AddressSanitizer a poisoned gap follows every slot, so an
  /// overrun into the next object is still reported.
  class Block {
   public:
    Block() = default;
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    ~Block();

    /// Builds `make(id)` for each id of `order` in the next slot and
    /// points `by_id[id]` at it. A throwing `make` leaves the objects built
    /// so far to the destructor.
    template <typename T, typename Base, typename Make>
    void build(std::span<const net::NodeId> order, std::vector<Base*>& by_id,
               Make make);

   private:
    [[nodiscard]] std::byte* slot_at(std::size_t k) const {
      return chunks_[k / per_chunk_] + k % per_chunk_ * stride_;
    }

    std::vector<std::byte*> chunks_;
    std::size_t stride_ = 0;
    std::size_t per_chunk_ = 0;  ///< slots per chunk
    std::size_t size_ = 0;       ///< slots built
    void (*destroy_)(std::byte* slot) = nullptr;
  };

  mac::Channel channel_;
  std::vector<mac::MacBase*> macs_;  ///< by id
  std::vector<diffusion::DiffusionNode*> nodes_;  ///< by id
  // Declared last, nodes after MACs: the nodes are destroyed first, then
  // the MACs they use.
  Block mac_block_;
  Block node_block_;
};

}  // namespace wsn::scenario
