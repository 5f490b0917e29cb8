#include "filter/check_filter.h"

#include <algorithm>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "text/similarity.h"

namespace silkmoth {

std::vector<Candidate> SelectAndCheckCandidates(
    const SetRecord& ref, const Signature& sig, const Collection& data,
    const InvertedIndex& index, const Options& options, bool apply_check,
    CheckFilterStats* stats, const ElementSimilarity* sim,
    QueryScratch* scratch) {
  if (sim == nullptr) sim = GetSimilarity(options.phi);
  QueryScratch& sc = scratch != nullptr ? *scratch : ThreadScratch();
  sc.BeginQuery();

  for (uint32_t i = 0; i < sig.probe.size(); ++i) {
    const Element& r_elem = ref.elements[i];
    for (TokenId t : sig.probe[i]) {
      for (const Posting& p : index.List(t)) {
        if (stats != nullptr) ++stats->postings_scanned;
        if (sc.TouchSet(p.set_id)) {
          sc.set_cand[p.set_id] = Candidate{p.set_id, kNoBest, false};
          sc.set_size_ok[p.set_id] =
              SizeFeasible(ref.Size(), data.sets[p.set_id].Size(), options);
          if (stats != nullptr) {
            ++stats->initial_candidates;
            if (!sc.set_size_ok[p.set_id]) ++stats->size_filtered;
          }
        }
        if (!sc.set_size_ok[p.set_id]) continue;
        const Element& s_elem = data.sets[p.set_id].elements[p.elem_id];
        const double score =
            sim->ScoreThresholded(r_elem, s_elem, options.alpha);
        if (stats != nullptr) ++stats->similarity_calls;
        Candidate& c = sc.set_cand[p.set_id];
        // Probe elements run in ascending i, so the head is i's entry if
        // this set already matched r_i.
        if (c.head != kNoBest && sc.bests[c.head].elem == i) {
          double& best = sc.bests[c.head].best;
          best = std::max(best, score);
        } else {
          c.head = sc.PushBest(i, c.head, score);
        }
        if (score >= sig.check_threshold[i] - kFloatSlack) {
          c.strong = true;
        }
      }
    }
  }

  // The check filter may prune a candidate with no strong match only when
  // the signature's miss-bound sum certifies Σ_i bound_i < θ; that always
  // holds for valid weighted-family signatures.
  const double theta = MatchingThreshold(options.delta, ref.Size());
  const bool bound_certifies = sig.miss_bound_sum < theta - kFloatSlack;

  std::sort(sc.touched_sets.begin(), sc.touched_sets.end());
  std::vector<Candidate> out;
  out.reserve(sc.touched_sets.size());
  for (uint32_t set_id : sc.touched_sets) {
    if (!sc.set_size_ok[set_id]) continue;
    const Candidate& c = sc.set_cand[set_id];
    if (apply_check && bound_certifies && !c.strong) {
      if (stats != nullptr) ++stats->check_filtered;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<Candidate> AllCandidates(const SetRecord& ref,
                                     const Collection& data,
                                     const Options& options,
                                     SetIdRange range) {
  const uint32_t begin =
      std::min<uint32_t>(range.begin,
                         static_cast<uint32_t>(data.sets.size()));
  const uint32_t end = std::min<uint32_t>(
      std::max(range.end, begin), static_cast<uint32_t>(data.sets.size()));
  std::vector<Candidate> out;
  for (uint32_t s = begin; s < end; ++s) {
    if (!SizeFeasible(ref.Size(), data.sets[s].Size(), options)) continue;
    out.push_back(Candidate{s, kNoBest, true});
  }
  return out;
}

}  // namespace silkmoth
