#ifndef SILKMOTH_MATCHING_VERIFIER_H_
#define SILKMOTH_MATCHING_VERIFIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/dataset.h"
#include "text/similarity.h"

namespace silkmoth {

/// Counters describing one maximum-matching evaluation.
struct MatchingStats {
  size_t matrix_rows = 0;       ///< Rows of the φ matrix after reduction.
  size_t matrix_cols = 0;       ///< Columns of the φ matrix after reduction.
  size_t reduced_pairs = 0;     ///< Identical pairs removed by reduction.
  size_t similarity_calls = 0;  ///< φ evaluations performed (ScoreDecision:
                                ///< only pairs sharing a token for Jaccard,
                                ///< every pair for edit similarity).
  size_t bound_accepts = 0;     ///< Decisions settled by the greedy lower bound.
  size_t bound_rejects = 0;     ///< Decisions settled by the maxima upper bound.
  size_t tier2_accepts = 0;     ///< Accepts settled by the local-max tier-2
                                ///< lower bound after greedy failed.
  size_t floor_rejects = 0;     ///< Candidates dropped against the caller's
                                ///< floating floor (`floor_theta`), not θ.
  size_t exact_solves = 0;      ///< Hungarian runs in the ambiguous band.
  size_t reporting_solves = 0;  ///< Hungarian runs made purely to report an
                                ///< exact score on a bound-settled accept.
};

/// Outcome of a bound-guided threshold verification (ScoreDecision).
struct VerifyDecision {
  bool related = false;  ///< Matching score >= theta (within slack)?
  double score = 0.0;    ///< Exact matching score when `exact` is set, else
                         ///< the bound that settled the decision.
  double lower = 0.0;    ///< Greedy-matching lower bound (incl. reduction).
  double upper = 0.0;    ///< Row/column-maxima upper bound (incl. reduction).
  bool exact = false;    ///< `score` is the exact maximum matching score.
};

/// One aligned element pair in a maximum matching, for explainability.
struct AlignedPair {
  uint32_t r_elem = 0;  ///< Element index in R.
  uint32_t s_elem = 0;  ///< Element index in S.
  double score = 0.0;   ///< φ_α of the pair (> 0; zero pairs are omitted).

  /// Structural equality (indices and exact score).
  friend bool operator==(const AlignedPair&, const AlignedPair&) = default;
};

/// Computes the maximum matching score |R ∩̃φα S| (Section 2.1).
///
/// When `use_reduction` is true, `alpha` is 0, and 1-φ is a metric (Jaccard
/// distance, Eds dual), identical elements of R and S are paired greedily
/// before the O(n^3) matching runs on the reduced sets (Section 5.3). The
/// result is exactly the same score; reduction is a pure optimization, and it
/// is silently skipped whenever its preconditions do not hold. Identical
/// elements are found through sorted 64-bit fingerprints of their identity
/// (token ids for Jaccard, text for edit similarity), each hit confirmed by
/// comparing the identities.
///
/// ScoreDecision works on the φ_α graph as edge lists rather than a dense
/// matrix: for Jaccard only pairs that share a token can score above zero,
/// so only those are scored; for edit similarity every pair is. The bounds
/// run on the edges, and a dense matrix is scattered from them only for the
/// tier-2 bound and the Hungarian solver. Its buffers live in a
/// thread-local scratch, so a verification allocates nothing until then.
/// Score(), ScoreWithAlignment() and the solver stay dense.
class MaxMatchingVerifier {
 public:
  /// `sim` is the resolved element similarity φ (must outlive the
  /// verifier); scores below `alpha` count as 0. `use_reduction` requests
  /// reduction-based verification, which activates only when its
  /// preconditions hold (see the class comment).
  MaxMatchingVerifier(const ElementSimilarity* sim, double alpha,
                      bool use_reduction);

  /// Maximum matching score between r and s. `stats` is optional.
  double Score(const SetRecord& r, const SetRecord& s,
               MatchingStats* stats = nullptr) const;

  /// Bound-guided threshold test (Section 5.3 refinement): is the maximum
  /// matching score at least `theta`?
  ///
  /// Builds the positive φ_α edges once (per row, columns ascending), then
  /// sandwiches the optimum between cheap matching lower bounds and the min
  /// of the row-maxima and column-maxima sums, all computed on the edges.
  /// Tier 1 is a greedy matching (rows in descending row-max order take
  /// their heaviest free column); when it fails to settle an accept, tier 2
  /// runs the near-linear local-max matching (Birn et al., arXiv:1302.4587,
  /// a guaranteed 1/2-approximation) and the lower bound becomes the max of
  /// the two — the bounds are incomparable in general. Tier 2 and every
  /// Hungarian solve read a dense matrix scattered from the edges, built
  /// only when one of them runs. A zero cell never wins the greedy's strict
  /// `>` and adds +0.0 to no sum, so every bound, decision and score is
  /// bit-identical to a dense all-pairs evaluation.
  /// The bounds settle the decision outside `(theta - margin, theta +
  /// margin)`; the exact O(n³) Hungarian solver runs only in that ambiguous
  /// band (counted in `exact_solves`), deciding `score >= theta -
  /// kFloatSlack`.
  ///
  /// `margin` is the caller's slack budget: it must cover both bound-side
  /// float drift and any tolerance the caller's own acceptance test applies
  /// at a different scale (search passes test the *relatedness ratio* within
  /// kFloatSlack, which is a matching-score tolerance of up to
  /// kFloatSlack·(|R|+|S|) — they pass a margin of that magnitude so a
  /// bound-settled decision can never disagree with the ratio test). The
  /// effective margin is clamped to at least kFloatSlack so a bound-reject
  /// can never contradict the exact path's `score >= theta - kFloatSlack`
  /// accept test, whatever the caller passes.
  ///
  /// `floor_theta`, when above `theta`, is a floating secondary threshold
  /// (top-k search passes the current k-th-best score): once the upper bound
  /// falls below `floor_theta - margin` the candidate is rejected (counted
  /// in `floor_rejects`) without running any matching bound or solve, even
  /// if it would have cleared θ. Pass a negative value (the default) to
  /// disable it.
  ///
  /// `score` is exact (bit-compatible with Score()) when `exact` is set:
  /// always after an ambiguous-band solve, and on bound-accepts when
  /// `need_exact_score` is true — that mode runs the solver on the
  /// edges' dense matrix purely to report the score (the *decision* is
  /// still the bound's; it is counted in `reporting_solves`, not
  /// `exact_solves`). Rejects report the upper bound and never solve.
  VerifyDecision ScoreDecision(const SetRecord& r, const SetRecord& s,
                               double theta, MatchingStats* stats = nullptr,
                               double margin = kFloatSlack,
                               bool need_exact_score = false,
                               double floor_theta = -1.0) const;

  /// As Score, but also reports the alignment achieving it (pairs with
  /// positive φ_α only, sorted by r_elem). Used for explaining why two sets
  /// are related; always computed without the reduction so element indices
  /// refer to the original sets.
  double ScoreWithAlignment(const SetRecord& r, const SetRecord& s,
                            std::vector<AlignedPair>* alignment) const;

  /// True when the reduction optimization will actually run.
  bool ReductionActive() const { return reduction_active_; }

 private:
  /// Applies reduction-based peeling (when active) and emits the surviving
  /// element pointers; returns the number of identical pairs removed.
  size_t SelectElements(const SetRecord& r, const SetRecord& s,
                        std::vector<const Element*>* r_elems,
                        std::vector<const Element*>* s_elems) const;

  double ScoreDense(const std::vector<const Element*>& r_elems,
                    const std::vector<const Element*>& s_elems,
                    MatchingStats* stats) const;

  const ElementSimilarity* sim_;
  double alpha_;
  bool reduction_active_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_MATCHING_VERIFIER_H_
