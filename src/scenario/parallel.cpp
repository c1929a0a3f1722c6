#include "scenario/parallel.hpp"

#include "scenario/sweep.hpp"

namespace wsn::scenario {

int jobs_from_env() {
  static const int cached = [] {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(env_long("WSN_JOBS", hw, 1, 4096));
  }();
  return cached;
}

}  // namespace wsn::scenario
