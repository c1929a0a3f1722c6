// Typed packed trace records: the event vocabulary of the trace subsystem.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>

namespace wsn::trace {

/// First 8 bytes of a binary trace file; the trailing two digits are the
/// format version (DESIGN.md §11).
inline constexpr char kMagic[8] = {'W', 'S', 'N', 'T', 'R', 'C', '0', '1'};

/// Every traceable event. The numeric values are part of the binary trace
/// format (DESIGN.md §11): append new kinds at the end, never renumber.
enum class RecordKind : std::uint16_t {
  // --- MAC / channel -----------------------------------------------------
  kMacTxStart = 0,   ///< node=src, peer=dst, a=tx id, b=bytes
  kMacTxEnd,         ///< node=src, a=tx id (0 when the frame was an ACK)
  kMacRx,            ///< node=receiver, peer=src, a=tx id, b=bytes
  kMacCollision,     ///< node=receiver, peer=src of the corrupted arrival, a=tx id
  kMacDrop,          ///< node, peer=dst, a=DropReason, b=attempts|queue depth
  kMacBackoff,       ///< node, a=slots drawn, b=contention window
  kChannelSweep,     ///< node=src, a=tx id, b=audible radio count
  // --- Diffusion control/data plane --------------------------------------
  kInterestSend,     ///< node, peer=dst, a=sink id, b=round
  kInterestRecv,     ///< node, peer=from, a=sink id, b=round
  kExploratorySend,  ///< node, peer=dst, a=msg id, b=cost E
  kExploratoryRecv,  ///< node, peer=from, a=msg id, b=cost E
  kDataSend,         ///< node, peer=dst, a=msg id, b=item count
  kDataRecv,         ///< node, peer=from, a=msg id, b=item count
  kIcmSend,          ///< node, a=exploratory msg id, b=cost C
  kIcmRecv,          ///< node, peer=from, a=exploratory msg id, b=cost C
  kReinforceSend,    ///< node, peer=to, a=exploratory msg id, b=force flag
  kReinforceRecv,    ///< node, peer=from, a=exploratory msg id, b=force flag
  kNegativeSend,     ///< node, peer=to, a=NegativeReason
  kNegativeRecv,     ///< node, peer=from
  // --- Caches / gradients / tree -----------------------------------------
  kCacheHit,         ///< node, peer=from, a=duplicate key, b=TraceCache
  kCachePurge,       ///< node, a=TraceCache, b=entries purged
  kGradientNew,      ///< node, peer=neighbour, a=GradientType at creation
  kTreeChange,       ///< node, peer=neighbour, a=1 edge added / 0 removed
  // --- Data-item causality (trace_tool `path`) ----------------------------
  kItemGenerated,    ///< node=source, a=DataItemKey::packed()
  kItemForward,      ///< node, peer=next hop, a=packed key, b=carrying msg id
  kItemDelivered,    ///< node=sink, a=packed key, b=generation-to-sink delay ns
  // --- Energy / failures ---------------------------------------------------
  kEnergySample,     ///< retired: no longer emitted, value kept reserved
  kNodeDown,         ///< node powered off by the failure process
  kNodeUp,           ///< node revived by the failure process
  // --- Appended kinds ------------------------------------------------------
  kItemDropped,      ///< node, a=packed key; no usable gradient at flush
  kEnergyTotal,      ///< node, a=RadioState, b=ns in that state (at harvest)
  kCount             ///< sentinel, not a record kind
};

inline constexpr std::size_t kRecordKindCount =
    static_cast<std::size_t>(RecordKind::kCount);

/// `a` values of kMacDrop.
enum class DropReason : std::uint64_t { kQueueFull = 0, kRetryExhausted = 1 };

/// `a` values of kNegativeSend.
enum class NegativeReason : std::uint64_t { kCascade = 0, kTruncation = 1 };

/// Cache identities for kCacheHit / kCachePurge.
enum class TraceCache : std::uint64_t {
  kInterestRounds = 0,
  kExploratory = 1,
  kSeenDataMsgs = 2,
  kSeenItems = 3,
  kIcm = 4,
  kGradients = 5,
  kSuspects = 6,
  kSendFailures = 7,
  kNeighborData = 8,
};

/// One trace record. Fixed shape: the kind defines what `peer`, `a` and
/// `b` mean (see the enum comments). `peer` is kNoPeer for events with no
/// counterpart node.
struct Record {
  std::int64_t t_ns = 0;
  RecordKind kind = RecordKind::kCount;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const Record&) const = default;
};

inline constexpr std::uint32_t kNoPeer = 0xffffffffu;

/// Per-kind record tallies; harvested into RunResult and printed by
/// `trace_tool summary`.
struct CounterTable {
  std::array<std::uint64_t, kRecordKindCount> counts{};

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : counts) t += c;
    return t;
  }
  [[nodiscard]] std::uint64_t of(RecordKind k) const {
    return counts[static_cast<std::size_t>(k)];
  }
};

/// Stable dotted name, e.g. "mac.tx_start"; "?" for out-of-range values.
[[nodiscard]] const char* kind_name(RecordKind kind);

/// Writes one record as a text line: `prefix`, time, kind name, fields.
/// The one formatter behind `trace_tool dump`/`diff` and the flight
/// recorder dump.
void print_record(std::FILE* out, const char* prefix, const Record& r);

/// Component prefix of a kind ("mac", "channel", "diffusion", "cache",
/// "gradient", "item", "energy", "failure").
[[nodiscard]] const char* kind_component(RecordKind kind);

}  // namespace wsn::trace
