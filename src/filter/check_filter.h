#ifndef SILKMOTH_FILTER_CHECK_FILTER_H_
#define SILKMOTH_FILTER_CHECK_FILTER_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "index/inverted_index.h"
#include "sig/signature.h"
#include "text/dataset.h"

namespace silkmoth {

struct QueryScratch;
class ElementSimilarity;

/// End of a candidate's best chain (QueryScratch::bests): no probed match.
inline constexpr uint32_t kNoBest = static_cast<uint32_t>(-1);

/// One candidate set surviving candidate selection.
///
/// `head` starts the chain of the candidate's probed bests in the
/// QueryScratch that selected it: for every element index i of R that had
/// at least one probed match in this set, the maximum φ_α(r_i, s) over
/// those matches (the check filter computes these similarities anyway, and
/// the NN filter reuses them). `strong` marks candidates with at least one
/// match at or above the element's check threshold.
struct Candidate {
  uint32_t set_id = 0;
  uint32_t head = kNoBest;  ///< Newest entry of the best chain, or kNoBest.
  bool strong = false;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// Counters for the candidate selection + check filter stage.
struct CheckFilterStats {
  size_t postings_scanned = 0;
  size_t similarity_calls = 0;
  size_t initial_candidates = 0;  ///< Distinct sets touched by the probes.
  size_t size_filtered = 0;       ///< Dropped by the size bounds.
  size_t check_filtered = 0;      ///< Dropped by the check filter.
};

/// Candidate selection and check filter (Algorithm 1, extended per §6.5).
///
/// Walks each probe token's inverted list; each (set, element) posting pair
/// gets φ_α(r_i, s) computed and folded into the candidate's bests. A
/// candidate survives when it has at least one "strong" match — one with
/// φ_α at or above the element's check threshold — or, defensively, when the
/// signature's miss-bound sum fails to certify pruning (only possible for
/// the combined-unweighted scheme, whose validity rests on the count
/// argument instead). Sets infeasible by the size bounds (footnote 6 /
/// Definition 2) are dropped on first touch.
///
/// When `apply_check` is false only the selection and size test run: every
/// touched feasible set becomes a candidate with its bests still recorded.
///
/// `sim` is the resolved similarity for `options.phi` (looked up internally
/// when null — callers on the hot path resolve it once per search pass).
/// `scratch` provides the epoch-stamped candidate accumulator and the best
/// arena; null means the calling thread's scratch (ThreadScratch). The
/// returned candidates' bests live in that scratch and stay valid until its
/// next BeginQuery (the next SelectAndCheckCandidates on it) or ShrinkTo;
/// read them with QueryScratch::BestsOf, or hand the candidates to
/// NnFilterCandidates with the same scratch.
std::vector<Candidate> SelectAndCheckCandidates(
    const SetRecord& ref, const Signature& sig, const Collection& data,
    const InvertedIndex& index, const Options& options, bool apply_check,
    CheckFilterStats* stats = nullptr, const ElementSimilarity* sim = nullptr,
    QueryScratch* scratch = nullptr);

/// Fallback when no valid signature exists (§7.3): every size-feasible set
/// in `range` (clamped to the collection; defaults to all of it) becomes a
/// candidate with no bests. Sharded passes restrict the scan to their
/// shard's set-id range so shards never report overlapping candidates.
std::vector<Candidate> AllCandidates(const SetRecord& ref,
                                     const Collection& data,
                                     const Options& options,
                                     SetIdRange range = {});

}  // namespace silkmoth

#endif  // SILKMOTH_FILTER_CHECK_FILTER_H_
