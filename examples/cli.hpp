// Command-line value checking shared by the example programs: a value that
// does not parse, or lies outside its range, prints the reason and exits 2,
// and so does a config that run_experiment rejects.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "scenario/experiment.hpp"
#include "scenario/sweep.hpp"

namespace cli {

/// Upper bound on node, source and sink counts.
inline constexpr long kMaxCount = 1'000'000;

/// Whole-string integer value of `flag` in [lo, hi]; anything else prints
/// the reason and exits 2.
inline long long_flag(const char* flag, const char* value, long lo, long hi) {
  const char* reason = nullptr;
  if (const auto v = wsn::scenario::parse_long(value, lo, hi, &reason)) {
    return *v;
  }
  std::fprintf(stderr,
               "invalid %s \"%s\": %s (want an integer in [%ld, %ld])\n",
               flag, value, reason, lo, hi);
  std::exit(2);
}

/// Same for a finite real value in [lo, hi].
inline double double_flag(const char* flag, const char* value, double lo,
                          double hi) {
  const char* reason = nullptr;
  if (const auto v = wsn::scenario::parse_double(value, lo, hi, &reason)) {
    return *v;
  }
  std::fprintf(stderr, "invalid %s \"%s\": %s (want a number in [%g, %g])\n",
               flag, value, reason, lo, hi);
  std::exit(2);
}

/// Whole-string seed value of `flag`: any unsigned 64-bit integer, written
/// in decimal digits only; anything else prints the reason and exits 2.
inline std::uint64_t seed_flag(const char* flag, const char* value) {
  const char* reason = "not an integer";
  if (*value >= '0' && *value <= '9') {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (*end == '\0') {
      if (errno != ERANGE) return v;
      reason = "overflows uint64";
    }
  }
  std::fprintf(stderr,
               "invalid %s \"%s\": %s (want an integer in [0, %llu])\n",
               flag, value, reason,
               static_cast<unsigned long long>(UINT64_MAX));
  std::exit(2);
}

/// Runs `cfg`; a config run_experiment rejects prints the reason and
/// exits 2.
inline wsn::scenario::RunResult run_or_exit(
    const wsn::scenario::ExperimentConfig& cfg) {
  try {
    return wsn::scenario::run_experiment(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid config: %s\n", e.what());
    std::exit(2);
  }
}

/// Positional argument `i` checked as by long_flag; `fallback` if absent.
inline long long_arg(int argc, char** argv, int i, const char* name,
                     long fallback, long lo, long hi) {
  return argc > i ? long_flag(name, argv[i], lo, hi) : fallback;
}

/// Positional seed argument `i` checked as by seed_flag; `fallback` if absent.
inline std::uint64_t seed_arg(int argc, char** argv, int i,
                              std::uint64_t fallback) {
  return argc > i ? seed_flag("seed", argv[i]) : fallback;
}

}  // namespace cli
