// Algorithm selector + factory for the two diffusion instantiations.
#pragma once

#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/greedy_node.hpp"
#include "diffusion/node.hpp"

namespace wsn::core {

/// Which aggregation-tree instantiation a node runs.
enum class Algorithm {
  kOpportunistic,  ///< baseline: low-latency tree, opportunistic aggregation
  kGreedy,         ///< the paper's greedy incremental tree (§4)
};

[[nodiscard]] constexpr std::string_view to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kOpportunistic: return "opportunistic";
    case Algorithm::kGreedy: return "greedy";
  }
  return "?";
}

/// Calls `f(std::type_identity<T>{})` with the node class `algorithm`
/// runs, so every builder maps algorithms to classes here.
template <typename F>
decltype(auto) with_node_type(Algorithm algorithm, F&& f) {
  switch (algorithm) {
    case Algorithm::kGreedy:
      return std::forward<F>(f)(std::type_identity<GreedyNode>{});
    case Algorithm::kOpportunistic:
      break;
  }
  return std::forward<F>(f)(std::type_identity<diffusion::OpportunisticNode>{});
}

/// Creates a protocol node of the requested kind.
std::unique_ptr<diffusion::DiffusionNode> make_diffusion_node(
    Algorithm algorithm, sim::Simulator& sim, mac::MacBase& mac,
    net::Vec2 position, const diffusion::DiffusionParams& params,
    sim::Rng rng, stats::MetricsCollector* metrics);

}  // namespace wsn::core
