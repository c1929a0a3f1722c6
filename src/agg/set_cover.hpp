// Weighted set cover: greedy heuristic (paper §4.2) and exact solver.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace wsn::agg {

/// One candidate subset in a weighted set-cover instance. Elements are
/// indices into an implicit universe [0, universe_size).
struct WeightedSet {
  std::vector<std::uint32_t> elements;  ///< need not be sorted; dups ignored
  double weight = 1.0;
};

/// Result of a cover computation.
struct SetCoverResult {
  std::vector<std::size_t> chosen;  ///< indices into the input family
  double total_weight = 0.0;
  bool covered = false;  ///< false if the family cannot cover the universe
};

/// Caller-owned scratch for greedy_weighted_set_cover: the sets' bitsets as
/// one flat array of words, the chosen flags, the index lists and the
/// result. The buffers keep their capacity from call to call, so once a
/// workspace has seen the largest instance, a cover costs no heap
/// allocation. The fields are the solver's; read only `result`.
struct GreedyCoverWorkspace {
  std::vector<std::uint64_t> masks;    ///< set i's words at [i·w, (i+1)·w)
  std::vector<std::uint64_t> covered;  ///< w words
  std::vector<std::uint64_t> rest;     ///< w words
  std::vector<char> chosen;            ///< one flag per set
  std::vector<std::size_t> chosen_idx;
  std::vector<std::size_t> by_weight_desc;
  SetCoverResult result;
};

/// Greedy heuristic for weighted set cover (Chvátal): repeatedly pick the
/// set with the lowest cost ratio weight / |uncovered ∩ set|, then drop
/// redundant chosen sets (paper §4.2's final step). Approximation ratio
/// ln(d) + 1 where d is the largest set size.
///
/// `universe_size` bounds element indices; pass 0 to infer it as
/// max(element)+1 over all sets. Ties are broken toward the lower set
/// index, deterministically. Returns `ws.result`, valid until the next
/// call on `ws`.
const SetCoverResult& greedy_weighted_set_cover(
    GreedyCoverWorkspace& ws, std::span<const WeightedSet> family,
    std::uint32_t universe_size = 0);

/// Exact minimum-weight cover by dynamic programming over element subsets.
/// Requires universe_size <= 20 (2^m states); intended for tests and for
/// quality benchmarking of the greedy heuristic.
SetCoverResult exact_weighted_set_cover(std::span<const WeightedSet> family,
                                        std::uint32_t universe_size = 0);

/// One set's step of the §4.3 source transform, in place: on entry
/// `set.elements` holds the source index of each of the set's `events`
/// events; on return it holds the distinct sources, sorted, and
/// `set.weight` is w·|S*|/|S| (unchanged when `events` is 0). Allocates
/// nothing.
void collapse_to_sources(WeightedSet& set, std::size_t events);

/// The paper's §4.3 source transform: given aggregates whose elements are
/// *events* tagged with the source that produced them, produce the
/// source-level instance. Each aggregate's element set becomes the set of
/// distinct sources, and its weight becomes w·|S*|/|S| so the initial cost
/// ratio is preserved.
///
/// `event_sources[i][j]` is the source index of element j of aggregate i.
std::vector<WeightedSet> transform_to_sources(
    std::span<const WeightedSet> event_sets,
    std::span<const std::vector<std::uint32_t>> event_sources);

}  // namespace wsn::agg
