// CLI over src/trace binary traces: summary | dump | path <item-key> | diff.
//
//   trace_tool summary FILE         per-kind/per-component/per-node counters
//   trace_tool dump FILE            every record as one text line
//   trace_tool path FILE SRC:SEQ    hop-by-hop reconstruction of one data
//                                   item from generation to each delivery
//                                   or drop (SRC:SEQ, or the packed key)
//   trace_tool diff A B             byte-exact comparison of two same-seed
//                                   traces; prints the first divergent
//                                   record and exits 1 on divergence
//   trace_tool diff --canonical A B
//                                   the same up to the order of records
//                                   within one nanosecond, with tx ids
//                                   renamed to (sender, start time); prints
//                                   the first divergent nanosecond
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace/reader.hpp"
#include "trace/trace.hpp"

namespace {

using wsn::trace::Record;
using wsn::trace::RecordKind;
using wsn::trace::TraceReader;

int usage() {
  std::fprintf(stderr,
               "usage: trace_tool summary FILE\n"
               "       trace_tool dump FILE\n"
               "       trace_tool path FILE <source:seq | packed-key>\n"
               "       trace_tool diff [--canonical] FILE_A FILE_B\n");
  return 2;
}

int cmd_summary(const std::string& path) {
  TraceReader reader{path};
  if (!reader.ok()) {
    std::fprintf(stderr, "trace_tool: %s\n", reader.error().c_str());
    return 2;
  }
  wsn::trace::CounterTable counters;
  std::map<std::string, std::uint64_t> per_component;
  std::map<std::uint32_t, std::uint64_t> per_node;
  std::int64_t t_first = 0;
  std::int64_t t_last = 0;
  Record r;
  while (reader.next(r)) {
    if (reader.records_read() == 1) t_first = r.t_ns;
    t_last = r.t_ns;
    ++counters.counts[static_cast<std::size_t>(r.kind)];
    ++per_component[wsn::trace::kind_component(r.kind)];
    ++per_node[r.node];
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "trace_tool: %s\n", reader.error().c_str());
    return 2;
  }

  std::printf("trace    %s\n", path.c_str());
  std::printf("header   seed=%" PRIu64 "  config-digest=%016" PRIx64 "\n",
              reader.header().seed, reader.header().config_digest);
  std::printf("records  %" PRIu64 "  span %.6fs .. %.6fs  nodes %zu\n\n",
              reader.records_read(), static_cast<double>(t_first) * 1e-9,
              static_cast<double>(t_last) * 1e-9, per_node.size());

  std::printf("%-28s %12s\n", "kind", "records");
  for (std::size_t k = 0; k < wsn::trace::kRecordKindCount; ++k) {
    if (counters.counts[k] == 0) continue;
    std::printf("%-28s %12" PRIu64 "\n",
                wsn::trace::kind_name(static_cast<RecordKind>(k)),
                counters.counts[k]);
  }
  std::printf("\n%-28s %12s\n", "component", "records");
  for (const auto& [component, n] : per_component) {
    std::printf("%-28s %12" PRIu64 "\n", component.c_str(), n);
  }

  // Busiest nodes: the usual first question a summary answers is "where is
  // the traffic concentrating".
  std::vector<std::pair<std::uint64_t, std::uint32_t>> busiest;
  busiest.reserve(per_node.size());
  for (const auto& [node, n] : per_node) busiest.emplace_back(n, node);
  std::sort(busiest.rbegin(), busiest.rend());
  const std::size_t top = std::min<std::size_t>(busiest.size(), 10);
  std::printf("\n%-28s %12s\n", "busiest nodes", "records");
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("node %-23" PRIu32 " %12" PRIu64 "\n", busiest[i].second,
                busiest[i].first);
  }
  return 0;
}

int cmd_dump(const std::string& path) {
  TraceReader reader{path};
  Record r;
  while (reader.next(r)) wsn::trace::print_record(stdout, "", r);
  if (!reader.ok()) {
    std::fprintf(stderr, "trace_tool: %s\n", reader.error().c_str());
    return 2;
  }
  return 0;
}

bool parse_item_key(const char* arg, std::uint64_t& key) {
  const char* colon = std::strchr(arg, ':');
  char* end = nullptr;
  if (colon != nullptr) {
    const unsigned long long src = std::strtoull(arg, &end, 10);
    if (end != colon) return false;
    const unsigned long long seq = std::strtoull(colon + 1, &end, 10);
    if (*end != '\0' || src > 0xffffffffULL || seq > 0xffffffffULL) {
      return false;
    }
    key = (src << 32) | seq;
    return true;
  }
  key = std::strtoull(arg, &end, 10);
  return end != arg && *end == '\0';
}

int cmd_path(const std::string& path, const char* key_arg) {
  std::uint64_t key = 0;
  if (!parse_item_key(key_arg, key)) {
    std::fprintf(stderr, "trace_tool: bad item key \"%s\" (want SRC:SEQ)\n",
                 key_arg);
    return 2;
  }
  TraceReader reader{path};
  if (!reader.ok()) {
    std::fprintf(stderr, "trace_tool: %s\n", reader.error().c_str());
    return 2;
  }
  std::printf("item %" PRIu32 ":%" PRIu32 " (key %" PRIu64 ")\n",
              static_cast<std::uint32_t>(key >> 32),
              static_cast<std::uint32_t>(key & 0xffffffffULL), key);
  std::uint64_t hits = 0;
  Record r;
  while (reader.next(r)) {
    if (r.a != key) continue;
    const double t = static_cast<double>(r.t_ns) * 1e-9;
    switch (r.kind) {
      case RecordKind::kItemGenerated:
        ++hits;
        std::printf("  t=%.6fs generated at node %" PRIu32 "\n", t, r.node);
        break;
      case RecordKind::kItemForward:
        ++hits;
        std::printf("  t=%.6fs %" PRIu32 " -> %" PRIu32 " (msg %" PRIu64
                    ")\n",
                    t, r.node, r.peer, r.b);
        break;
      case RecordKind::kItemDelivered:
        ++hits;
        std::printf("  t=%.6fs delivered at sink %" PRIu32 " (delay %.6fs)\n",
                    t, r.node, static_cast<double>(r.b) * 1e-9);
        break;
      case RecordKind::kItemDropped:
        ++hits;
        std::printf("  t=%.6fs dropped at node %" PRIu32
                    " (no usable gradient)\n",
                    t, r.node);
        break;
      default:
        break;  // same `a` value in an unrelated kind (e.g. a msg id)
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "trace_tool: %s\n", reader.error().c_str());
    return 2;
  }
  if (hits == 0) {
    std::printf("  (no records for this item)\n");
    return 1;
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             wsn::trace::DiffMode mode) {
  const wsn::trace::TraceDiff diff =
      wsn::trace::diff_traces(path_a, path_b, mode);
  if (!diff.comparable) {
    std::fprintf(stderr, "trace_tool: %s\n", diff.error.c_str());
    return 2;
  }
  if (diff.identical) {
    std::printf(mode == wsn::trace::DiffMode::kCanonical
                    ? "traces identical up to same-instant order\n"
                    : "traces identical\n");
    return 0;
  }
  if (diff.header_differs) {
    std::printf("headers differ (seed or config digest): the traces are not "
                "from same-seed runs of the same configuration\n");
  }
  if (diff.has_a || diff.has_b) {
    const bool canonical = mode == wsn::trace::DiffMode::kCanonical;
    const char* missing = canonical ? "<none>" : "<end of trace>";
    if (canonical) {
      std::printf("first divergent nanosecond: t=%" PRId64
                  " ns (A record index %" PRIu64 ")\n",
                  diff.first_diff_t_ns, diff.first_diff_index);
    } else {
      std::printf("first divergent record: index %" PRIu64 "\n",
                  diff.first_diff_index);
    }
    if (diff.has_a) wsn::trace::print_record(stdout, "  A: ", diff.a);
    else            std::printf("  A: %s\n", missing);
    if (diff.has_b) wsn::trace::print_record(stdout, "  B: ", diff.b);
    else            std::printf("  B: %s\n", missing);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "summary" && argc == 3) return cmd_summary(argv[2]);
  if (cmd == "dump" && argc == 3) return cmd_dump(argv[2]);
  if (cmd == "path" && argc == 4) return cmd_path(argv[2], argv[3]);
  if (cmd == "diff" && argc == 4) {
    return cmd_diff(argv[2], argv[3], wsn::trace::DiffMode::kExact);
  }
  if (cmd == "diff" && argc == 5 && std::strcmp(argv[2], "--canonical") == 0) {
    return cmd_diff(argv[3], argv[4], wsn::trace::DiffMode::kCanonical);
  }
  return usage();
}
