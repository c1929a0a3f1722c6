#include "scenario/network.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "core/algorithm.hpp"
#include "mac/csma_mac.hpp"
#include "mac/tdma_mac.hpp"

#if defined(__has_feature)
#define WSN_NETWORK_HAS_FEATURE(x) __has_feature(x)
#else
#define WSN_NETWORK_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || WSN_NETWORK_HAS_FEATURE(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define WSN_NETWORK_ASAN 1
#else
#define WSN_NETWORK_ASAN 0
#endif

namespace wsn::scenario {
namespace {

/// Bytes poisoned after every Block slot under AddressSanitizer, none
/// otherwise. Freeing takes an allocation back poisoned or not.
constexpr std::size_t kGap = WSN_NETWORK_ASAN ? alignof(std::max_align_t) : 0;

/// The most bytes one allocation of slots holds; every block of the paper's
/// fields fits in one (660 KB of GreedyNodes at 350 nodes). Once glibc's
/// mmap threshold has risen past a block, the block comes from the heap,
/// and a hole too small for the next run's block stays resident beside it:
/// single 19 MB node blocks raised field_10k's peak RSS by 13–18 MiB in 3 of
/// 20 runs. Holes of 1 MiB are refilled.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

}  // namespace

template <typename T, typename Base, typename Make>
void Network::Block::build(std::span<const net::NodeId> order,
                           std::vector<Base*>& by_id, Make make) {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                kGap % alignof(T) == 0);
  stride_ = sizeof(T) + kGap;
  per_chunk_ = std::max<std::size_t>(1, kChunkBytes / stride_);
  chunks_.reserve((order.size() + per_chunk_ - 1) / per_chunk_);
  destroy_ = [](std::byte* slot) {
    std::launder(reinterpret_cast<T*>(slot))->~T();
  };
  for (const net::NodeId id : order) {
    if (size_ % per_chunk_ == 0) {
      const std::size_t slots = std::min(per_chunk_, order.size() - size_);
      chunks_.push_back(
          static_cast<std::byte*>(::operator new(slots * stride_)));
    }
    std::byte* const slot = slot_at(size_);
#if WSN_NETWORK_ASAN
    ASAN_POISON_MEMORY_REGION(slot + sizeof(T), kGap);
#endif
    // `make` returns a prvalue, so the object is built in its slot.
    by_id[id] = ::new (static_cast<void*>(slot)) T(make(id));
    ++size_;
  }
}

Network::Block::~Block() {
  while (size_ > 0) destroy_(slot_at(--size_));
  for (std::byte* chunk : chunks_) ::operator delete(chunk);
}

Network::Network(sim::Simulator& sim, const net::Topology& topology,
                 const ExperimentConfig& config, const sim::Rng& master,
                 stats::MetricsCollector* metrics)
    : channel_{sim, topology, config.phy.propagation},
      macs_(topology.node_count(), nullptr),
      nodes_(topology.node_count(), nullptr) {
  const std::span<const net::NodeId> order = topology.cell_order();
  if (config.mac_type == MacType::kCsma) {
    mac_block_.build<mac::CsmaMac>(order, macs_, [&](net::NodeId id) {
      return mac::CsmaMac{sim, channel_, id, config.phy, config.energy,
                          master.fork(1000 + id)};
    });
  } else {
    const auto slots = static_cast<std::uint32_t>(topology.node_count());
    mac_block_.build<mac::TdmaMac>(order, macs_, [&](net::NodeId id) {
      return mac::TdmaMac{sim, channel_, id, slots, config.phy, config.tdma,
                          config.energy};
    });
  }
  core::with_node_type(
      config.algorithm, [&]<typename T>(std::type_identity<T>) {
        node_block_.build<T>(order, nodes_, [&](net::NodeId id) {
          return T{sim, *macs_[id], topology.position(id), config.diffusion,
                   master.fork(2000 + id), metrics};
        });
      });
}

void Network::start() {
  for (diffusion::DiffusionNode* node : nodes_) node->start();
}

}  // namespace wsn::scenario
