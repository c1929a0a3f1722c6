// Aggregation size functions (paper §3, §5.4).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wsn::agg {

/// Maps "how many distinct data items are in an aggregate" to the size in
/// bytes of the message that carries them: z(d) = header + d·item. All of
/// the paper's functions are affine in d, so two numbers describe each.
struct AggregateSize {
  std::uint32_t header_bytes = 64;
  std::uint32_t item_bytes = 0;

  /// Size in bytes of an aggregate carrying `item_count` distinct items.
  [[nodiscard]] constexpr std::uint32_t bytes(std::size_t item_count) const {
    return header_bytes + static_cast<std::uint32_t>(item_count) * item_bytes;
  }
  constexpr bool operator==(const AggregateSize&) const = default;
};

/// Perfect: any number of items compress to one 64-byte event; the
/// paper's default (Figures 5-9).
inline constexpr AggregateSize kPerfect{64, 0};
/// Linear: z = 28·d + 36. Lossless but inefficient — only the
/// per-transmission header is shared (§5.4, Figure 10).
inline constexpr AggregateSize kLinear{36, 28};
/// Packing: whole 64-byte events behind one 36-byte header (§3).
inline constexpr AggregateSize kPacking{36, 64};
/// Timestamp: events share their high-order timestamp fields, so the
/// first item costs 28 bytes and every later one 24 (§3's
/// remote-surveillance example): 36 + 28 + 24·(d − 1) = 40 + 24·d.
inline constexpr AggregateSize kTimestamp{40, 24};

}  // namespace wsn::agg
