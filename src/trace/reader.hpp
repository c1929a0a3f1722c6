// Binary trace reader + same-seed trace comparison (library behind
// tools/trace_tool and the trace tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/records.hpp"

namespace wsn::trace {

/// Decoded trace-file header (written by Tracer's file sink).
struct TraceHeader {
  std::uint64_t seed = 0;
  std::uint64_t config_digest = 0;
};

/// Streams records out of one binary trace file. The file is loaded whole
/// at construction; check `ok()` before iterating.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const TraceHeader& header() const { return header_; }

  /// Decodes the next record into `out`. Returns false at end of trace;
  /// a truncated or corrupt record also returns false and sets `error()`.
  bool next(Record& out);

  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }

 private:
  bool read_varint(std::uint64_t& v);

  std::vector<unsigned char> data_;
  std::size_t pos_ = 0;
  TraceHeader header_;
  std::int64_t last_t_ns_ = 0;
  std::uint64_t records_read_ = 0;
  std::string error_;
};

/// How `diff_traces` compares two traces.
enum class DiffMode {
  /// Record by record, in order: byte-exactness.
  kExact,
  /// Up to the order of records within one nanosecond, with transmission
  /// ids renamed to (sender, start time). Two same-seed runs whose events
  /// at one instant dispatch in a different order, or whose same-instant
  /// transmissions swap ids, compare equal.
  kCanonical,
};

/// Outcome of comparing two same-seed traces. In exact mode the record
/// encoding is canonical (same records <=> same bytes), so record-wise
/// equality plus equal record counts is byte-exactness.
struct TraceDiff {
  bool comparable = false;  ///< both files opened and parsed
  bool identical = false;
  bool header_differs = false;
  /// Exact mode: index of the first divergent record (or of the first
  /// record present in only one trace when one is a prefix of the other).
  /// Canonical mode: index in trace A of the first record of the first
  /// divergent nanosecond.
  std::uint64_t first_diff_index = 0;
  /// Time of the divergent record (exact) or nanosecond (canonical).
  std::int64_t first_diff_t_ns = 0;
  /// Exact mode: the divergent records. Canonical mode: a record of that
  /// nanosecond found only in A (`a`) and one found only in B (`b`).
  bool has_a = false;
  bool has_b = false;
  Record a;
  Record b;
  std::string error;  ///< set when !comparable
};

/// Compares two binary traces; prints nothing (callers format the result).
[[nodiscard]] TraceDiff diff_traces(const std::string& path_a,
                                    const std::string& path_b,
                                    DiffMode mode = DiffMode::kExact);

}  // namespace wsn::trace
