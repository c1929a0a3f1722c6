// wsn_perfbench: runs one benchmark workload and prints its metrics.
//
//   wsn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (tracing off), --trace 1 the
// per-layer metrics of the traced run. The last stdout line is the result
// object; the exit code is 0 only when every output check passed.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wsn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (std::string_view name : perfbench::workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Whole-string unsigned parse; false on anything else.
bool parse_u64(const char* s, unsigned long long& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  unsigned long long seed = 0;
  unsigned long long seconds = 0;
  unsigned long long trace = 2;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, seed);
    } else if (flag == "--seconds") {
      have_seconds = parse_u64(value, seconds) && seconds >= 1 &&
                     seconds <= 3600;
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace)) trace = 2;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || trace > 1) {
    return usage();
  }
  const auto workload = perfbench::make_workload(workload_name, seed);
  if (!workload) return usage();

  try {
    const perfbench::Outcome outcome =
        trace == 1 ? perfbench::run_traced(*workload)
                   : perfbench::run_untraced(*workload,
                                             static_cast<double>(seconds));
    perfbench::print_outcome(stdout, outcome);
    return outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsn_perfbench: %s\n", e.what());
    return 1;
  }
}
