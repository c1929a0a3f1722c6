// Distance masks for one 64-member chunk of a cell block: the kernel of
// net::Topology's neighbour scan, internal to src/net/ and its tests.
#pragma once

#include <cstddef>
#include <cstdint>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "net/vec2.hpp"

namespace wsn::net {

inline constexpr std::size_t kChunk = 64;

/// Bit k: member k, at (xs[k], ys[k]), lies strictly within the radio range
/// (distance_sq < range_sq: `decodable`) or the CS range (`audible`) of p.
struct ChunkMasks {
  std::uint64_t decodable = 0;
  std::uint64_t audible = 0;
};

inline ChunkMasks chunk_masks_scalar(Vec2 p, const double* xs, const double* ys,
                                     double range_sq, double cs_sq) {
  ChunkMasks m;
  for (std::size_t k = 0; k < kChunk; ++k) {
    const double d_sq = distance_sq(p, {xs[k], ys[k]});
    m.decodable |= std::uint64_t{d_sq < range_sq} << k;
    m.audible |= std::uint64_t{d_sq < cs_sq} << k;
  }
  return m;
}

/// The same masks, two members per SSE2 step on targets with SSE2 (every
/// x86-64): the same IEEE operations and strict comparisons. Unrolled, every
/// shift and load offset is a constant (about 0.87× the rolled loop's time).
inline ChunkMasks chunk_masks(Vec2 p, const double* xs, const double* ys,
                              double range_sq, double cs_sq) {
#if defined(__SSE2__)
  const __m128d px = _mm_set1_pd(p.x);
  const __m128d py = _mm_set1_pd(p.y);
  const __m128d r2 = _mm_set1_pd(range_sq);
  const __m128d c2 = _mm_set1_pd(cs_sq);
  ChunkMasks m;
#pragma GCC unroll 32
  for (std::size_t k = 0; k < kChunk; k += 2) {
    const __m128d dx = _mm_sub_pd(px, _mm_loadu_pd(xs + k));
    const __m128d dy = _mm_sub_pd(py, _mm_loadu_pd(ys + k));
    const __m128d d_sq = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    m.decodable |=
        std::uint64_t(_mm_movemask_pd(_mm_cmplt_pd(d_sq, r2))) << k;
    m.audible |= std::uint64_t(_mm_movemask_pd(_mm_cmplt_pd(d_sq, c2))) << k;
  }
  return m;
#else
  return chunk_masks_scalar(p, xs, ys, range_sq, cs_sq);
#endif
}

}  // namespace wsn::net
