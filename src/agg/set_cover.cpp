#include "agg/set_cover.hpp"

#include <algorithm>
#include <cassert>

#include "sim/audit.hpp"

namespace wsn::agg {
namespace {

using Word = std::uint64_t;

[[nodiscard]] std::size_t words_for(std::uint32_t m) { return (m + 63) / 64; }

void set_bit(Word* bits, std::uint32_t i) { bits[i >> 6] |= 1ULL << (i & 63); }

/// |a \ b| over `w` words.
[[nodiscard]] std::uint32_t count_and_not(const Word* a, const Word* b,
                                          std::size_t w) {
  std::uint32_t c = 0;
  for (std::size_t k = 0; k < w; ++k) {
    c += static_cast<std::uint32_t>(__builtin_popcountll(a[k] & ~b[k]));
  }
  return c;
}

void or_into(Word* dst, const Word* src, std::size_t w) {
  for (std::size_t k = 0; k < w; ++k) dst[k] |= src[k];
}

std::uint32_t infer_universe(std::span<const WeightedSet> family,
                             std::uint32_t given) {
  if (given != 0) return given;
  std::uint32_t m = 0;
  for (const auto& s : family) {
    for (auto e : s.elements) m = std::max(m, e + 1);
  }
  return m;
}

#if WSN_AUDIT_ENABLED
/// Audit-build check: a result flagged `covered` really covers [0, m).
/// `got` is scratch.
void audit_cover(std::span<const WeightedSet> family, std::uint32_t m,
                 const SetCoverResult& result, std::vector<Word>& got) {
  if (!result.covered) return;
  got.assign(words_for(m), 0);
  for (std::size_t i : result.chosen) {
    WSN_AUDIT_CHECK(i < family.size(), "chosen index outside the family");
    for (auto e : family[i].elements) set_bit(got.data(), e);
  }
  std::uint32_t count = 0;
  for (Word word : got) {
    count += static_cast<std::uint32_t>(__builtin_popcountll(word));
  }
  WSN_AUDIT_CHECK(count == m, "returned cover does not cover the universe");
}
#endif

}  // namespace

const SetCoverResult& greedy_weighted_set_cover(
    GreedyCoverWorkspace& ws, std::span<const WeightedSet> family,
    std::uint32_t universe_size) {
  const std::uint32_t m = infer_universe(family, universe_size);
  SetCoverResult& result = ws.result;
  result.chosen.clear();
  result.total_weight = 0.0;
  result.covered = true;
  if (m == 0) return result;

  // assign() reuses the buffers' capacity: no allocation once warm.
  const std::size_t w = words_for(m);
  ws.masks.assign(family.size() * w, 0);
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (auto e : family[i].elements) {
      assert(e < m && "element outside universe");
      set_bit(&ws.masks[i * w], e);
    }
  }
  const auto mask = [&](std::size_t i) { return &ws.masks[i * w]; };
  ws.covered.assign(w, 0);
  ws.chosen.assign(family.size(), 0);
  std::uint32_t covered_count = 0;

  while (covered_count < m) {
    // Pick the set minimising weight / |newly covered|.
    std::size_t best = family.size();
    double best_ratio = std::numeric_limits<double>::infinity();
    std::uint32_t best_gain = 0;
    for (std::size_t i = 0; i < family.size(); ++i) {
      if (ws.chosen[i]) continue;
      const std::uint32_t gain = count_and_not(mask(i), ws.covered.data(), w);
      if (gain == 0) continue;
      const double ratio = family[i].weight / static_cast<double>(gain);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = i;
        best_gain = gain;
      }
    }
    if (best == family.size()) {
      // Universe not coverable by this family.
      result.covered = false;
      for (std::size_t i = 0; i < family.size(); ++i) {
        if (ws.chosen[i]) result.chosen.push_back(i);
      }
      return result;
    }
    ws.chosen[best] = 1;
    or_into(ws.covered.data(), mask(best), w);
    covered_count += best_gain;
  }

  // Final step (paper §4.2): drop chosen sets fully covered by the union of
  // the other chosen sets. Scan from the most expensive down so the
  // costliest redundancy goes first.
  ws.chosen_idx.clear();
  for (std::size_t i = 0; i < family.size(); ++i) {
    if (ws.chosen[i]) ws.chosen_idx.push_back(i);
  }
  ws.by_weight_desc.assign(ws.chosen_idx.begin(), ws.chosen_idx.end());
  std::sort(ws.by_weight_desc.begin(), ws.by_weight_desc.end(),
            [&](std::size_t a, std::size_t b) {
              if (family[a].weight != family[b].weight) {
                return family[a].weight > family[b].weight;
              }
              return a < b;
            });
  for (std::size_t candidate : ws.by_weight_desc) {
    ws.rest.assign(w, 0);
    for (std::size_t i : ws.chosen_idx) {
      if (ws.chosen[i] && i != candidate) or_into(ws.rest.data(), mask(i), w);
    }
    if (count_and_not(mask(candidate), ws.rest.data(), w) == 0) {
      ws.chosen[candidate] = 0;
    }
  }

  for (std::size_t i = 0; i < family.size(); ++i) {
    if (ws.chosen[i]) {
      result.chosen.push_back(i);
      result.total_weight += family[i].weight;
    }
  }
  WSN_AUDIT_ONLY(audit_cover(family, m, result, ws.rest);)
  return result;
}

SetCoverResult exact_weighted_set_cover(std::span<const WeightedSet> family,
                                        std::uint32_t universe_size) {
  const std::uint32_t m = infer_universe(family, universe_size);
  assert(m <= 20 && "exact solver limited to universes of <= 20 elements");
  SetCoverResult result;
  if (m == 0) {
    result.covered = true;
    return result;
  }

  const std::uint32_t full = (m >= 32) ? 0xffffffffu : ((1u << m) - 1);
  std::vector<std::uint32_t> set_mask(family.size(), 0);
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (auto e : family[i].elements) set_mask[i] |= 1u << e;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(full + 1, kInf);
  std::vector<std::int32_t> choice(full + 1, -1);   // set added to reach state
  std::vector<std::uint32_t> parent(full + 1, 0);   // previous state
  dp[0] = 0.0;
  for (std::uint32_t mask = 0; mask <= full; ++mask) {
    if (dp[mask] == kInf) continue;
    for (std::size_t i = 0; i < family.size(); ++i) {
      const std::uint32_t next = mask | set_mask[i];
      if (next == mask) continue;
      const double w = dp[mask] + family[i].weight;
      if (w < dp[next]) {
        dp[next] = w;
        choice[next] = static_cast<std::int32_t>(i);
        parent[next] = mask;
      }
    }
    if (mask == full) break;
  }

  if (dp[full] == kInf) {
    result.covered = false;
    return result;
  }
  result.covered = true;
  result.total_weight = dp[full];
  for (std::uint32_t cur = full; cur != 0; cur = parent[cur]) {
    result.chosen.push_back(static_cast<std::size_t>(choice[cur]));
  }
  std::sort(result.chosen.begin(), result.chosen.end());
  WSN_AUDIT_ONLY(std::vector<Word> got; audit_cover(family, m, result, got);)
  return result;
}

void collapse_to_sources(WeightedSet& set, std::size_t events) {
  std::sort(set.elements.begin(), set.elements.end());
  set.elements.erase(std::unique(set.elements.begin(), set.elements.end()),
                     set.elements.end());
  const auto total = static_cast<double>(events);
  const auto distinct = static_cast<double>(set.elements.size());
  // w* = w · |S*| / |S| preserves the initial cost ratio w/|S| = w*/|S*|.
  if (total > 0.0) set.weight = set.weight * distinct / total;
}

}  // namespace wsn::agg
