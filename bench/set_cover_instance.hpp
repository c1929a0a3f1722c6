// Seeded random weighted set-cover instances for the E8 row of sweeps and
// the set-cover panels of micro_sim.
#pragma once

#include <cstdint>
#include <vector>

#include "agg/set_cover.hpp"
#include "sim/random.hpp"

namespace wsn::bench {

/// `sets` subsets of [0, universe), each element in at `density`, weighted
/// in [0.5, 10), plus a catch-all weighted in [5, 25) so a cover exists.
inline std::vector<agg::WeightedSet> random_set_cover_instance(
    std::uint32_t universe, std::size_t sets, double density,
    std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<agg::WeightedSet> family(sets + 1);
  for (std::size_t i = 0; i < sets; ++i) {
    for (std::uint32_t e = 0; e < universe; ++e) {
      if (rng.chance(density)) family[i].elements.push_back(e);
    }
    family[i].weight = rng.uniform(0.5, 10.0);
  }
  for (std::uint32_t e = 0; e < universe; ++e) {
    family[sets].elements.push_back(e);
  }
  family[sets].weight = rng.uniform(5.0, 25.0);
  return family;
}

}  // namespace wsn::bench
