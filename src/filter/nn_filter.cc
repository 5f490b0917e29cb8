#include "filter/nn_filter.h"

#include <algorithm>
#include <bit>
#include <span>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "text/similarity.h"

namespace silkmoth {

namespace {

// Elements of the target sharing no token with r_elem still have bounded
// similarity: exactly 0 for Jaccard (word overlap is required), and at most
// |r|/(|r|+g) for the edit similarities, where g is r's q-chunk count (a
// string missing every q-gram of r misses every chunk, so LD >= g, Section
// 7.1). Both searches start from this floor.
double UnsharedFloor(const Element& r_elem, const Options& options) {
  if (!IsEditSimilarity(options.phi) || r_elem.chunks.empty()) return 0.0;
  const double len = static_cast<double>(r_elem.text.size());
  const double unshared =
      len / (len + static_cast<double>(r_elem.chunks.size()));
  return unshared >= options.alpha - kFloatSlack ? unshared : 0.0;
}

// True when the sorted, deduplicated token lists share a token.
bool SharesToken(std::span<const TokenId> a, std::span<const TokenId> b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

bool NnScanIsCheaper(const Element& r_elem, size_t set_size,
                     const InvertedIndex& index) {
  const size_t scan = set_size * (r_elem.tokens.size() + 2);
  size_t probe = 0;
  for (TokenId t : r_elem.tokens) {
    probe += 2 * (std::bit_width(index.ListSize(t)) + 1);
    if (probe > scan) return true;
  }
  return false;
}

double NnSearch(const Element& r_elem, uint32_t set_id,
                const Collection& data, const InvertedIndex& index,
                const Options& options, NnFilterStats* stats,
                const ElementSimilarity* sim, QueryScratch* scratch) {
  if (NnScanIsCheaper(r_elem, data.sets[set_id].Size(), index)) {
    return NnSearchScan(r_elem, set_id, data, options, stats, sim);
  }
  return NnSearchProbe(r_elem, set_id, data, index, options, stats, sim,
                       scratch);
}

double NnSearchProbe(const Element& r_elem, uint32_t set_id,
                     const Collection& data, const InvertedIndex& index,
                     const Options& options, NnFilterStats* stats,
                     const ElementSimilarity* sim, QueryScratch* scratch) {
  if (sim == nullptr) sim = GetSimilarity(options.phi);
  const SetRecord& target = data.sets[set_id];
  // Epoch-stamped marks keep φ computed once per element at O(1) per
  // posting.
  QueryScratch& sc = scratch != nullptr ? *scratch : ThreadScratch();
  sc.BeginNnSearch(target.Size());
  double best = UnsharedFloor(r_elem, options);
  for (TokenId t : r_elem.tokens) {
    for (const Posting& p : index.ListInSet(t, set_id)) {
      if (!sc.VisitElem(p.elem_id)) continue;
      const double s = sim->ScoreThresholded(
          r_elem, target.elements[p.elem_id], options.alpha);
      if (stats != nullptr) ++stats->similarity_calls;
      best = std::max(best, s);
      if (best >= 1.0 - kFloatSlack) return best;  // Cannot improve.
    }
  }
  return best;
}

double NnSearchScan(const Element& r_elem, uint32_t set_id,
                    const Collection& data, const Options& options,
                    NnFilterStats* stats, const ElementSimilarity* sim) {
  if (sim == nullptr) sim = GetSimilarity(options.phi);
  double best = UnsharedFloor(r_elem, options);
  for (const Element& s_elem : data.sets[set_id].elements) {
    if (!SharesToken(r_elem.tokens, s_elem.tokens)) continue;
    const double s = sim->ScoreThresholded(r_elem, s_elem, options.alpha);
    if (stats != nullptr) ++stats->similarity_calls;
    best = std::max(best, s);
    if (best >= 1.0 - kFloatSlack) return best;  // Cannot improve.
  }
  return best;
}

std::vector<Candidate> NnFilterCandidates(
    const SetRecord& ref, const Signature& sig,
    std::vector<Candidate> candidates, const Collection& data,
    const InvertedIndex& index, const Options& options, NnFilterStats* stats,
    const ElementSimilarity* sim, QueryScratch* scratch) {
  if (sim == nullptr) sim = GetSimilarity(options.phi);
  QueryScratch& sc = scratch != nullptr ? *scratch : ThreadScratch();
  const double theta = MatchingThreshold(options.delta, ref.Size());
  const size_t n = ref.Size();

  // Scratch: per-element estimate and whether it is already exact.
  std::vector<double> est(n);
  std::vector<uint8_t> exact(n);

  // Survivors are compacted to the front of `candidates`, in order.
  size_t kept = 0;
  for (const Candidate& cand : candidates) {
    // Initialize with miss bounds, then fold in the check filter's probed
    // similarities (computation reuse, Section 5.2): a probed best that
    // reaches the miss bound dominates every unprobed element, so it IS the
    // exact nearest-neighbor similarity. For α-protected elements the miss
    // bound is 0, so any probed best is exact.
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      est[i] = sig.miss_bound[i];
      exact[i] = 0;
    }
    for (uint32_t e = cand.head; e != kNoBest; e = sc.bests[e].prev) {
      const BestEntry& b = sc.bests[e];
      if (b.best >= sig.miss_bound[b.elem] - kFloatSlack) {
        est[b.elem] = b.best;
        exact[b.elem] = 1;
      }
      // Otherwise the probed matches are all weaker than the miss bound and
      // elements outside the probe set may still reach it: keep the bound.
    }
    for (size_t i = 0; i < n; ++i) total += est[i];

    bool pruned = total < theta - kFloatSlack;
    if (!pruned) {
      for (size_t i = 0; i < n; ++i) {
        if (exact[i]) continue;
        if (stats != nullptr) ++stats->nn_searches;
        const double nn = NnSearch(ref.elements[i], cand.set_id, data, index,
                                   options, stats, sim, &sc);
        total += nn - est[i];
        est[i] = nn;
        exact[i] = 1;
        if (total < theta - kFloatSlack) {
          pruned = true;
          if (stats != nullptr && i + 1 < n) ++stats->early_terminations;
          break;
        }
      }
    }

    if (pruned) {
      if (stats != nullptr) ++stats->nn_filtered;
      continue;
    }
    candidates[kept++] = cand;
  }
  candidates.resize(kept);
  return candidates;
}

}  // namespace silkmoth
