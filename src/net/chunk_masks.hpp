// Distance masks and list writes for one node's cell block: the kernel of
// net::Topology's neighbour scan, internal to src/net/ and its tests.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#if defined(__x86_64__)
// GCC 12's AVX-512 `_round_` forms pass `_mm512_undefined_pd()`, a
// self-initialised variable, as their unused merge source, which
// -W(maybe-)uninitialized reports at every inlined call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "net/types.hpp"
#include "net/vec2.hpp"

namespace wsn::net {

inline constexpr std::size_t kChunk = 64;

/// Bit k: member k, at (xs[k], ys[k]), lies strictly within the radio range
/// (distance_sq < range_sq: `decodable`) or the CS range (`audible`) of p.
struct ChunkMasks {
  std::uint64_t decodable = 0;
  std::uint64_t audible = 0;
};

/// The bodies of the scan. Each masks the same bits and writes the same
/// lists; they differ only in the instructions they need.
enum class ScanKernel : std::uint8_t { kScalar, kSse2, kAvx512 };

[[nodiscard]] constexpr std::string_view kernel_name(ScanKernel k) {
  switch (k) {
    case ScanKernel::kAvx512: return "avx512";
    case ScanKernel::kSse2: return "sse2";
    case ScanKernel::kScalar: break;
  }
  return "scalar";
}

/// True iff this CPU runs kernel k: the scalar body anywhere, SSE2 on every
/// x86-64, AVX-512 where CPUID reports avx512f and popcnt.
[[nodiscard]] inline bool kernel_runs(ScanKernel k) {
#if defined(__x86_64__)
  if (k == ScanKernel::kAvx512) {
    __builtin_cpu_init();  // safe before static constructors have run
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("popcnt");
  }
  return true;
#else
  return k == ScanKernel::kScalar;
#endif
}

/// The fastest kernel this CPU runs, read from CPUID once per process.
[[nodiscard]] inline ScanKernel scan_kernel() {
  static const ScanKernel best = kernel_runs(ScanKernel::kAvx512)
                                     ? ScanKernel::kAvx512
                                 : kernel_runs(ScanKernel::kSse2)
                                     ? ScanKernel::kSse2
                                     : ScanKernel::kScalar;
  return best;
}

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

/// Appends ids[k] for every set bit k of `bits`, in ascending k; returns the
/// new end of `out`.
inline NodeId* write_ids_scalar(std::uint64_t bits, const NodeId* ids,
                                NodeId* out) {
  for (; bits != 0; bits &= bits - 1) *out++ = ids[std::countr_zero(bits)];
  return out;
}

#if defined(__x86_64__)
/// The same masks, two members per SSE2 step: the same IEEE operations and
/// strict comparisons. Unrolled, every shift and load offset is a constant
/// (about 0.87× the rolled loop's time).
inline ChunkMasks chunk_masks_sse2(Vec2 p, const double* xs, const double* ys,
                                   double range_sq, double cs_sq) {
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
}

/// The same masks, eight members per AVX-512 step. Each operation is a
/// `_round_` form with round-to-nearest: GCC defines the plain
/// `_mm512_mul_pd`/`_mm512_add_pd` as vector `*`/`+` and fuses them into an
/// FMA, whose single rounding flips members exactly at the range.
[[gnu::target("avx512f")]] inline ChunkMasks chunk_masks_avx512(
    Vec2 p, const double* xs, const double* ys, double range_sq,
    double cs_sq) {
  constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m512d px = _mm512_set1_pd(p.x);
  const __m512d py = _mm512_set1_pd(p.y);
  const __m512d r2 = _mm512_set1_pd(range_sq);
  const __m512d c2 = _mm512_set1_pd(cs_sq);
  ChunkMasks m;
#pragma GCC unroll 8
  for (std::size_t k = 0; k < kChunk; k += 8) {
    const __m512d dx =
        _mm512_sub_round_pd(px, _mm512_loadu_pd(xs + k), kNearest);
    const __m512d dy =
        _mm512_sub_round_pd(py, _mm512_loadu_pd(ys + k), kNearest);
    const __m512d d_sq =
        _mm512_add_round_pd(_mm512_mul_round_pd(dx, dx, kNearest),
                            _mm512_mul_round_pd(dy, dy, kNearest), kNearest);
    m.decodable |= std::uint64_t{_mm512_cmp_pd_mask(d_sq, r2, _CMP_LT_OQ)}
                   << k;
    m.audible |= std::uint64_t{_mm512_cmp_pd_mask(d_sq, c2, _CMP_LT_OQ)} << k;
  }
  return m;
}

/// The same ids, written by one masked compress-store per 16 members. Only
/// the selected lanes are stored, so nothing lands past the last one; all
/// 64 ids are loaded, so a block's padding lanes must be readable.
[[gnu::target("avx512f,popcnt")]] inline NodeId* write_ids_avx512(
    std::uint64_t bits, const NodeId* ids, NodeId* out) {
#pragma GCC unroll 4
  for (std::size_t k = 0; k < kChunk; k += 16) {
    const auto lanes = static_cast<std::uint16_t>(bits >> k);
    _mm512_mask_compressstoreu_epi32(out, lanes, _mm512_loadu_si512(ids + k));
    out += std::popcount(lanes);
  }
  return out;
}
#endif

/// One chunk's masks from kernel k's body.
inline ChunkMasks chunk_masks(ScanKernel k, Vec2 p, const double* xs,
                              const double* ys, double range_sq,
                              double cs_sq) {
#if defined(__x86_64__)
  if (k == ScanKernel::kAvx512) {
    return chunk_masks_avx512(p, xs, ys, range_sq, cs_sq);
  }
  if (k == ScanKernel::kSse2) {
    return chunk_masks_sse2(p, xs, ys, range_sq, cs_sq);
  }
#endif
  return chunk_masks_scalar(p, xs, ys, range_sq, cs_sq);
}

/// A node's 3×3 cell block: `chunks` whole chunks of member ids (padded with
/// kNoNode) and coordinates (padded with +inf, which set no bit), and the
/// scanning node's own index among them.
struct ScanBlock {
  const NodeId* ids;
  const double *xs, *ys;
  std::size_t chunks;
  std::size_t own;
};

/// Sizes of a node's list: its decodable prefix and the whole audible list.
struct ListSizes {
  std::size_t decodable = 0;
  std::size_t audible = 0;
};

/// Clears the scanning node's own bit (at distance 0 it is set wherever
/// range² > 0) from both masks, then counts both lists.
inline ListSizes count_lists(ChunkMasks* masks, const ScanBlock& b) {
  const std::uint64_t own = ~(std::uint64_t{1} << (b.own % kChunk));
  masks[b.own / kChunk].decodable &= own;
  masks[b.own / kChunk].audible &= own;
  ListSizes s;
  for (std::size_t w = 0; w < b.chunks; ++w) {
    s.decodable += static_cast<std::size_t>(std::popcount(masks[w].decodable));
    s.audible += static_cast<std::size_t>(std::popcount(masks[w].audible));
  }
  return s;
}

#if defined(__x86_64__)
// The AVX-512 pair holds its own loops: a caller without the target could
// not inline the AVX-512 bodies.
namespace scan_detail {

[[gnu::target("avx512f,popcnt")]] inline ListSizes mask_block_avx512(
    Vec2 p, const ScanBlock& b, double range_sq, double cs_sq,
    ChunkMasks* masks) {
  for (std::size_t w = 0; w < b.chunks; ++w) {
    masks[w] = chunk_masks_avx512(p, b.xs + w * kChunk, b.ys + w * kChunk,
                                  range_sq, cs_sq);
  }
  return count_lists(masks, b);
}

[[gnu::target("avx512f,popcnt")]] inline void write_list_avx512(
    const ScanBlock& b, const ChunkMasks* masks, NodeId* out) {
  for (std::size_t w = 0; w < b.chunks; ++w) {
    out = write_ids_avx512(masks[w].decodable, b.ids + w * kChunk, out);
  }
  for (std::size_t w = 0; w < b.chunks; ++w) {
    out = write_ids_avx512(masks[w].audible & ~masks[w].decodable,
                           b.ids + w * kChunk, out);
  }
}

}  // namespace scan_detail
#endif

/// Masks every chunk of b against p into masks[0, b.chunks) with kernel k,
/// own bit cleared, and returns the list sizes.
inline ListSizes mask_block(ScanKernel k, Vec2 p, const ScanBlock& b,
                            double range_sq, double cs_sq, ChunkMasks* masks) {
#if defined(__x86_64__)
  if (k == ScanKernel::kAvx512) {
    return scan_detail::mask_block_avx512(p, b, range_sq, cs_sq, masks);
  }
#endif
  for (std::size_t w = 0; w < b.chunks; ++w) {
    masks[w] = chunk_masks(k, p, b.xs + w * kChunk, b.ys + w * kChunk,
                           range_sq, cs_sq);
  }
  return count_lists(masks, b);
}

/// Writes the list mask_block sized to out: the decodable members' ids, then
/// the carrier-sense-only ones', each in block order, so ascending.
inline void write_list(ScanKernel k, const ScanBlock& b,
                       const ChunkMasks* masks, NodeId* out) {
#if defined(__x86_64__)
  if (k == ScanKernel::kAvx512) {
    scan_detail::write_list_avx512(b, masks, out);
    return;
  }
#endif
  for (std::size_t w = 0; w < b.chunks; ++w) {
    out = write_ids_scalar(masks[w].decodable, b.ids + w * kChunk, out);
  }
  for (std::size_t w = 0; w < b.chunks; ++w) {
    out = write_ids_scalar(masks[w].audible & ~masks[w].decodable,
                           b.ids + w * kChunk, out);
  }
}

}  // namespace wsn::net
