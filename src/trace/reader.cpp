#include "trace/reader.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace wsn::trace {
namespace {

constexpr std::size_t kHeaderBytes = sizeof kMagic + 8 + 8;

std::uint64_t read_u64_le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

TraceReader::TraceReader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error_ = "cannot open " + path;
    return;
  }
  unsigned char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    data_.insert(data_.end(), chunk, chunk + n);
  }
  std::fclose(f);
  if (data_.size() < kHeaderBytes ||
      std::memcmp(data_.data(), kMagic, sizeof kMagic) != 0) {
    error_ = path + ": not a WSNTRC01 trace";
    return;
  }
  header_.seed = read_u64_le(data_.data() + sizeof kMagic);
  header_.config_digest = read_u64_le(data_.data() + sizeof kMagic + 8);
  pos_ = kHeaderBytes;
}

bool TraceReader::read_varint(std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return false;
    const unsigned char byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // over-long varint
}

bool TraceReader::next(Record& out) {
  if (!ok() || pos_ >= data_.size()) return false;
  const std::size_t record_start = pos_;
  std::uint64_t kind = 0;
  std::uint64_t dt = 0;
  std::uint64_t node = 0;
  std::uint64_t peer = 0;
  if (!read_varint(kind) || !read_varint(dt) || !read_varint(node) ||
      !read_varint(peer) || !read_varint(out.a) || !read_varint(out.b)) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "truncated record %llu at byte offset %zu",
                  static_cast<unsigned long long>(records_read_), record_start);
    error_ = msg;
    return false;
  }
  if (kind >= kRecordKindCount) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "unknown record kind %llu in record %llu",
                  static_cast<unsigned long long>(kind),
                  static_cast<unsigned long long>(records_read_));
    error_ = msg;
    return false;
  }
  out.kind = static_cast<RecordKind>(kind);
  last_t_ns_ += unzigzag(dt);
  out.t_ns = last_t_ns_;
  out.node = static_cast<std::uint32_t>(node);
  out.peer = static_cast<std::uint32_t>(peer);
  ++records_read_;
  return true;
}

namespace {

/// Kinds whose `a` is a transmission id (`mac.tx_end` only when non-zero:
/// an ACK's end carries 0).
bool carries_tx_id(const Record& r) {
  switch (r.kind) {
    case RecordKind::kMacTxStart:
    case RecordKind::kMacRx:
    case RecordKind::kMacCollision:
    case RecordKind::kChannelSweep:
      return true;
    case RecordKind::kMacTxEnd:
      return r.a != 0;
    default:
      return false;
  }
}

/// A record as the canonical diff compares it. For kinds that carry a
/// transmission id, `key.a` holds the transmission's sender and
/// `tx_start_ns` its start time, which name it uniquely (a radio sends one
/// frame at a time); `raw` is the record as written, for reporting.
struct CanonicalRecord {
  Record key;
  std::int64_t tx_start_ns = -1;
  Record raw;

  [[nodiscard]] auto order() const {
    return std::tie(key.t_ns, key.kind, key.node, key.peer, key.a, key.b,
                    tx_start_ns);
  }
  bool operator<(const CanonicalRecord& o) const { return order() < o.order(); }
  bool operator==(const CanonicalRecord& o) const {
    return order() == o.order();
  }
};

/// Reads a time-ordered trace one nanosecond at a time: each group holds
/// every record of one instant, renamed and sorted.
class GroupReader {
 public:
  explicit GroupReader(TraceReader& reader) : reader_{&reader} { advance(); }

  [[nodiscard]] bool done() const { return !has_next_; }
  [[nodiscard]] std::int64_t next_t_ns() const { return next_.t_ns; }

  /// Appends the group at `next_t_ns()` to `out`, sorted.
  void read_group(std::vector<CanonicalRecord>& out) {
    const std::int64_t t = next_.t_ns;
    while (has_next_ && next_.t_ns == t) {
      out.push_back(canonical(next_));
      advance();
    }
    std::sort(out.begin(), out.end());
  }

 private:
  void advance() { has_next_ = reader_->next(next_); }

  CanonicalRecord canonical(const Record& r) {
    CanonicalRecord c{r, -1, r};
    if (r.kind == RecordKind::kMacTxStart) starts_[r.a] = {r.node, r.t_ns};
    if (!carries_tx_id(r)) return c;
    // Every record naming a transmission follows its tx_start; an id with
    // no tx_start in this trace is compared as written.
    const auto it = starts_.find(r.a);
    if (it != starts_.end()) {
      c.key.a = it->second.first;
      c.tx_start_ns = it->second.second;
    }
    return c;
  }

  TraceReader* reader_;
  Record next_;
  bool has_next_ = false;
  /// tx id -> (sender, start ns); looked up only, never iterated.
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::int64_t>>
      starts_;
};

void diff_exact(TraceReader& a, TraceReader& b, TraceDiff& diff) {
  for (std::uint64_t index = 0;; ++index) {
    Record ra;
    Record rb;
    const bool got_a = a.next(ra);
    const bool got_b = b.next(rb);
    if (!a.ok() || !b.ok()) return;
    if (!got_a && !got_b) break;  // both exhausted
    if (!got_a || !got_b || !(ra == rb)) {
      diff.first_diff_index = index;
      diff.first_diff_t_ns = got_a ? ra.t_ns : rb.t_ns;
      diff.has_a = got_a;
      diff.has_b = got_b;
      if (got_a) diff.a = ra;
      if (got_b) diff.b = rb;
      return;
    }
  }
  diff.identical = true;
}

/// Sets `out` to the first record of sorted group `from` that sorted group
/// `in` lacks; `has` says whether there is one.
void first_missing(const std::vector<CanonicalRecord>& from,
                   const std::vector<CanonicalRecord>& in, bool& has,
                   Record& out) {
  std::vector<CanonicalRecord> only;
  std::set_difference(from.begin(), from.end(), in.begin(), in.end(),
                      std::back_inserter(only));
  has = !only.empty();
  if (has) out = only.front().raw;
}

void diff_canonical(TraceReader& a, TraceReader& b, TraceDiff& diff) {
  GroupReader groups_a{a};
  GroupReader groups_b{b};
  std::vector<CanonicalRecord> ga;
  std::vector<CanonicalRecord> gb;
  std::uint64_t index = 0;
  while (!groups_a.done() || !groups_b.done()) {
    // The earlier next instant of the two; an ended trace has none.
    std::int64_t t = groups_a.done() ? groups_b.next_t_ns()
                                     : groups_a.next_t_ns();
    if (!groups_b.done()) t = std::min(t, groups_b.next_t_ns());
    ga.clear();
    gb.clear();
    if (!groups_a.done() && groups_a.next_t_ns() == t) groups_a.read_group(ga);
    if (!groups_b.done() && groups_b.next_t_ns() == t) groups_b.read_group(gb);
    if (!a.ok() || !b.ok()) return;
    if (ga != gb) {
      diff.first_diff_index = index;
      diff.first_diff_t_ns = t;
      first_missing(ga, gb, diff.has_a, diff.a);
      first_missing(gb, ga, diff.has_b, diff.b);
      return;
    }
    index += ga.size();
  }
  diff.identical = true;
}

}  // namespace

TraceDiff diff_traces(const std::string& path_a, const std::string& path_b,
                      DiffMode mode) {
  TraceDiff diff;
  TraceReader a{path_a};
  TraceReader b{path_b};
  if (!a.ok() || !b.ok()) {
    diff.error = !a.ok() ? a.error() : b.error();
    return diff;
  }
  diff.header_differs = a.header().seed != b.header().seed ||
                        a.header().config_digest != b.header().config_digest;
  if (mode == DiffMode::kExact) {
    diff_exact(a, b, diff);
  } else {
    diff_canonical(a, b, diff);
  }
  if (!a.ok() || !b.ok()) {
    diff.identical = false;
    diff.error = !a.ok() ? a.error() : b.error();
    return diff;
  }
  diff.comparable = true;
  if (diff.header_differs && diff.identical) {
    diff.identical = false;
    diff.first_diff_index = 0;
  }
  return diff;
}

}  // namespace wsn::trace
