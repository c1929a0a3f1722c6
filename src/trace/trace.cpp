#include "trace/trace.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>

#include "sim/audit.hpp"

namespace wsn::trace {
namespace {

constexpr std::size_t kFlushThreshold = 60 * 1024;

// --- flight-recorder registry -------------------------------------------
//
// Tracers with a ring register here so an audit violation anywhere in the
// process can dump every live ring. The registry mutex guards membership
// only; a dump racing a concurrent emit on another worker thread may read
// a half-written record — acceptable for a best-effort crash artefact.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}
std::vector<Tracer*>& registry() {
  static std::vector<Tracer*> tracers;
  return tracers;
}
std::atomic<std::FILE*> g_dump_stream{nullptr};

void ring_dump_hook() {
  std::FILE* out = g_dump_stream.load(std::memory_order_relaxed);
  Tracer::dump_all_rings(out != nullptr ? out : stderr);
}

void append_varint(std::vector<unsigned char>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<unsigned char>(v));
}

// Time deltas are non-negative on the monotone event clock, but zigzag
// keeps the format robust if an emission site ever runs off-clock.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

void append_u64_le(std::vector<unsigned char>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

// One row per RecordKind, in enum order: the dotted name and its component.
struct KindRow {
  const char* name;
  const char* component;
};
constexpr KindRow kKindRows[] = {
    {"mac.tx_start", "mac"},
    {"mac.tx_end", "mac"},
    {"mac.rx", "mac"},
    {"mac.collision", "mac"},
    {"mac.drop", "mac"},
    {"mac.backoff", "mac"},
    {"channel.sweep", "channel"},
    {"diffusion.interest_send", "diffusion"},
    {"diffusion.interest_recv", "diffusion"},
    {"diffusion.exploratory_send", "diffusion"},
    {"diffusion.exploratory_recv", "diffusion"},
    {"diffusion.data_send", "diffusion"},
    {"diffusion.data_recv", "diffusion"},
    {"diffusion.icm_send", "diffusion"},
    {"diffusion.icm_recv", "diffusion"},
    {"diffusion.reinforce_send", "diffusion"},
    {"diffusion.reinforce_recv", "diffusion"},
    {"diffusion.negative_send", "diffusion"},
    {"diffusion.negative_recv", "diffusion"},
    {"cache.hit", "cache"},
    {"cache.purge", "cache"},
    {"gradient.new", "gradient"},
    {"gradient.tree_change", "gradient"},
    {"item.generated", "item"},
    {"item.forward", "item"},
    {"item.delivered", "item"},
    {"energy.sample", "energy"},
    {"failure.node_down", "failure"},
    {"failure.node_up", "failure"},
    {"item.dropped", "item"},
    {"energy.total", "energy"},
};
static_assert(std::size(kKindRows) == kRecordKindCount,
              "every RecordKind needs exactly one row");

constexpr KindRow kUnknownKind{"?", "?"};

const KindRow& row_of(RecordKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < kRecordKindCount ? kKindRows[k] : kUnknownKind;
}

}  // namespace

const char* kind_name(RecordKind kind) { return row_of(kind).name; }

const char* kind_component(RecordKind kind) { return row_of(kind).component; }

void print_record(std::FILE* out, const char* prefix, const Record& r) {
  std::fprintf(out,
               "%st=%.9fs %-26s node=%" PRIu32 " peer=%" PRIu32 " a=%" PRIu64
               " b=%" PRIu64 "\n",
               prefix, static_cast<double>(r.t_ns) * 1e-9, kind_name(r.kind),
               r.node, r.peer, r.a, r.b);
}

TraceSpec spec_from_env() {
  TraceSpec spec;
  if (const char* path = std::getenv("WSN_TRACE"); path != nullptr) {
    spec.path = path;
  }
  if (const char* ring = std::getenv("WSN_TRACE_RING"); ring != nullptr) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(ring, &end, 10);
    if (end == ring || *end != '\0' || v > 100'000'000ULL) {
      std::fprintf(stderr,
                   "[wsn-trace] WSN_TRACE_RING=\"%s\" is not a record count "
                   "in [0, 1e8]; flight recorder disabled\n",
                   ring);
    } else {
      spec.ring_capacity = static_cast<std::size_t>(v);
    }
  }
  return spec;
}

std::string resolve_trace_path(const std::string& path_template,
                               std::uint64_t seed) {
  if (path_template.empty()) return {};
  char seed_str[24];
  std::snprintf(seed_str, sizeof seed_str, "%" PRIu64, seed);
  std::string out = path_template;
  bool substituted = false;
  for (std::size_t pos = out.find("{seed}"); pos != std::string::npos;
       pos = out.find("{seed}", pos)) {
    out.replace(pos, 6, seed_str);
    pos += std::strlen(seed_str);
    substituted = true;
  }
  // Without a placeholder, suffix the seed so parallel replicates of the
  // same template never collide on one file.
  if (!substituted) out += std::string(".s") + seed_str;
  return out;
}

Tracer::Tracer(const Options& options)
    : ring_capacity_{options.ring_capacity}, seed_{options.seed} {
  if (ring_capacity_ > 0) {
    ring_.reserve(ring_capacity_);
    sim::audit::set_violation_hook(&ring_dump_hook);
    std::lock_guard<std::mutex> lock{registry_mutex()};
    registry().push_back(this);
  }
  if (!options.path.empty()) {
    file_ = std::fopen(options.path.c_str(), "wb");
    if (file_ == nullptr) {
      error_ = "cannot open trace file: " + options.path;
      std::fprintf(stderr, "[wsn-trace] %s\n", error_.c_str());
    } else {
      buf_.reserve(kFlushThreshold + 64);
      buf_.insert(buf_.end(), std::begin(kMagic), std::end(kMagic));
      append_u64_le(buf_, options.seed);
      append_u64_le(buf_, options.config_digest);
    }
  }
}

Tracer::~Tracer() {
  flush();
  if (file_ != nullptr) std::fclose(file_);
  if (ring_capacity_ > 0) {
    std::lock_guard<std::mutex> lock{registry_mutex()};
    auto& tracers = registry();
    std::erase(tracers, this);
  }
}

void Tracer::emit(RecordKind kind, sim::Time t, std::uint32_t node,
                  std::uint32_t peer, std::uint64_t a, std::uint64_t b) {
  const Record r{t.as_nanos(), kind, node, peer, a, b};
  ++counters_.counts[static_cast<std::size_t>(kind)];
  if (ring_capacity_ > 0) {
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(r);
    } else {
      ring_[ring_next_] = r;
    }
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
    ++ring_seen_;
  }
  if (file_ != nullptr) encode(r);
}

void Tracer::encode(const Record& r) {
  append_varint(buf_, static_cast<std::uint64_t>(r.kind));
  append_varint(buf_, zigzag(r.t_ns - last_t_ns_));
  last_t_ns_ = r.t_ns;
  append_varint(buf_, r.node);
  append_varint(buf_, r.peer);
  append_varint(buf_, r.a);
  append_varint(buf_, r.b);
  if (buf_.size() >= kFlushThreshold) flush();
}

void Tracer::flush() {
  if (file_ == nullptr || buf_.empty()) return;
  std::fwrite(buf_.data(), 1, buf_.size(), file_);
  buf_.clear();  // capacity retained
}

std::vector<Record> Tracer::ring_snapshot() const {
  std::vector<Record> out;
  if (ring_.empty()) return out;
  out.reserve(ring_.size());
  // Oldest first: when the ring has wrapped, ring_next_ points at the
  // oldest live record.
  const std::size_t start = ring_.size() < ring_capacity_ ? 0 : ring_next_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Tracer::dump_all_rings(std::FILE* out) {
  std::lock_guard<std::mutex> lock{registry_mutex()};
  for (const Tracer* t : registry()) {
    const std::vector<Record> records = t->ring_snapshot();
    std::fprintf(out,
                 "[wsn-trace] flight recorder (seed %" PRIu64 "): last %zu of "
                 "%" PRIu64 " records\n",
                 t->seed_, records.size(), t->ring_seen_);
    for (const Record& r : records) print_record(out, "[wsn-trace]   ", r);
  }
  std::fflush(out);
}

void set_ring_dump_stream(std::FILE* out) {
  g_dump_stream.store(out, std::memory_order_relaxed);
}

}  // namespace wsn::trace
