// Deterministic random-number streams for simulations.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace wsn::sim {

/// xoshiro256** 1.0 (Blackman & Vigna) seeded through splitmix64.
///
/// Small, fast, and — unlike std::mt19937_64 seeded via seed_seq — gives the
/// same stream on every platform, which keeps experiments reproducible.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }
  /// Uniform Time in [Time::zero(), bound).
  Time jitter(Time bound);

  /// Derives an independent child stream; streams indexed differently are
  /// decorrelated. Used to give each node / process its own stream.
  [[nodiscard]] Rng fork(std::uint64_t stream_index) const;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) in random order. k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4] = {};
  std::uint64_t seed_ = 0;
};

}  // namespace wsn::sim
