#include "core/algorithm.hpp"

namespace wsn::core {

std::unique_ptr<diffusion::DiffusionNode> make_diffusion_node(
    Algorithm algorithm, sim::Simulator& sim, mac::MacBase& mac,
    net::Vec2 position, const diffusion::DiffusionParams& params,
    sim::Rng rng, stats::MetricsCollector* metrics) {
  switch (algorithm) {
    case Algorithm::kOpportunistic:
      return std::make_unique<diffusion::OpportunisticNode>(
          sim, mac, position, params, rng, metrics);
    case Algorithm::kGreedy:
      return std::make_unique<GreedyNode>(sim, mac, position, params, rng,
                                          metrics);
  }
  return nullptr;
}

}  // namespace wsn::core
