// Replicated runs and environment-based sizing for the bench harnesses.
#pragma once

#include <cstdint>
#include <optional>

#include "scenario/experiment.hpp"
#include "stats/accumulator.hpp"

namespace wsn::scenario {

/// Metric averages over several independently generated fields (the paper
/// averages each point over ten fields).
struct AveragedPoint {
  stats::Accumulator energy;         ///< J/node/received distinct event
  stats::Accumulator active_energy;  ///< tx+rx only, same units
  stats::Accumulator delay;          ///< seconds
  stats::Accumulator delivery;       ///< ratio
  stats::Accumulator degree;         ///< radio density actually realised
  // Per-node energy over the run, J (§3's traffic concentration):
  // the hottest node, the mean node and the σ across nodes.
  stats::Accumulator max_node_energy;
  stats::Accumulator mean_node_energy;
  stats::Accumulator stddev_node_energy;
  int replicates = 0;
};

/// Runs `replicates` copies of `base` with seeds seed0, seed0+1, ... and
/// averages the paper's three metrics and the per-node energy spread.
///
/// `jobs` > 1 runs the replicates on that many workers; `jobs` <= 0 uses
/// the WSN_JOBS env default (hardware concurrency); `jobs` == 1 — or
/// WSN_JOBS=1 — runs them in order on the calling thread. Every replicate
/// gets its own Simulator and Rng and writes into a seed-indexed slot;
/// slots are merged in seed order, so the accumulator streams (and hence
/// every mean, SEM and digest downstream) are bit-identical for any job
/// count.
AveragedPoint run_replicates(const ExperimentConfig& base, int replicates,
                             std::uint64_t seed0 = 1, int jobs = 0);

/// Order-sensitive digest of an averaged point's full accumulator state
/// (count/mean/variance/min/max per metric). Two runs with equal digests
/// accumulated bit-identical values in the same order — the bar the
/// parallel engine is held to against the serial path.
[[nodiscard]] std::uint64_t digest_of(const AveragedPoint& point);

/// Parses `s` as a whole-string base-10 integer in [lo, hi]. Malformed,
/// partial (e.g. "12abc"), overflowing or out-of-range input returns
/// nullopt — never a silent truncation the way atoi would — and, when
/// `reason` is non-null, points it at a short static explanation.
std::optional<long> parse_long(const char* s, long lo, long hi,
                               const char** reason = nullptr);

/// Same contract for finite doubles in [lo, hi].
std::optional<double> parse_double(const char* s, double lo, double hi,
                                   const char** reason = nullptr);

/// Reads env var `name` with parse_long. Unset returns `fallback`; a value
/// parse_long rejects warns on stderr with the reason and returns
/// `fallback`.
long env_long(const char* name, long fallback, long lo, long hi);

/// Same contract for finite doubles, via parse_double.
double env_double(const char* name, double fallback, double lo, double hi);

/// Number of fields per sweep point: WSN_FIELDS env var, else `fallback`.
int fields_from_env(int fallback = 5);

/// Simulated seconds per run: WSN_SIM_TIME env var, else `fallback`.
double sim_seconds_from_env(double fallback = 400.0);

}  // namespace wsn::scenario
