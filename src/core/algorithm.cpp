#include "core/algorithm.hpp"

namespace wsn::core {

std::unique_ptr<diffusion::DiffusionNode> make_diffusion_node(
    Algorithm algorithm, sim::Simulator& sim, mac::MacBase& mac,
    net::Vec2 position, const diffusion::DiffusionParams& params,
    sim::Rng rng, stats::MetricsCollector* metrics) {
  return with_node_type(
      algorithm,
      [&]<typename T>(
          std::type_identity<T>) -> std::unique_ptr<diffusion::DiffusionNode> {
        return std::make_unique<T>(sim, mac, position, params, rng, metrics);
      });
}

}  // namespace wsn::core
