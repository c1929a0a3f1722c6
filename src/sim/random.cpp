#include "sim/random.hpp"

#include <cassert>

namespace wsn::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  seed_ = seed;
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Debiased modulo (Lemire-style rejection).
  const std::uint64_t limit = -range % range;  // 2^64 mod range
  std::uint64_t r;
  do {
    r = next();
  } while (r < limit);
  return lo + static_cast<std::int64_t>(r % range);
}

Time Rng::jitter(Time bound) {
  if (bound <= Time::zero()) return Time::zero();
  return Time::nanos(uniform_int(0, bound.as_nanos() - 1));
}

Rng Rng::fork(std::uint64_t stream_index) const {
  // Mix the parent's seed with the stream index through splitmix64 so that
  // neighbouring indices yield unrelated streams.
  std::uint64_t x = seed_ ^ (0x632be59bd9b4e019ULL * (stream_index + 1));
  const std::uint64_t child_seed = splitmix64(x);
  return Rng{child_seed};
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k positions become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace wsn::sim
