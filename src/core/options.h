#ifndef SILKMOTH_CORE_OPTIONS_H_
#define SILKMOTH_CORE_OPTIONS_H_

#include <string>

#include "text/similarity.h"

namespace silkmoth {

/// Relatedness metric (Definitions 1 and 2 of the paper).
enum class Relatedness {
  kSimilarity,   ///< |R ∩̃ S| / (|R| + |S| - |R ∩̃ S|) >= δ.
  kContainment,  ///< |R ∩̃ S| / |R| >= δ, defined for |R| <= |S|.
};

const char* RelatednessName(Relatedness metric);

/// Signature schemes evaluated in Section 8.2.
enum class SignatureSchemeKind {
  kWeighted,        ///< Section 4.2; ignores α.
  kCombUnweighted,  ///< Combined unweighted (FastJoin-style, Section 6.2).
  kSkyline,         ///< Section 6.3.
  kDichotomy,       ///< Section 6.4.
};

const char* SignatureSchemeName(SignatureSchemeKind kind);

/// Engine configuration. Defaults reproduce the paper's strongest setting:
/// dichotomy signatures, both refinement filters, reduction-based
/// verification (auto-disabled when illegal).
struct Options {
  /// Relatedness semantics between sets.
  Relatedness metric = Relatedness::kSimilarity;

  /// Element similarity function φ.
  SimilarityKind phi = SimilarityKind::kJaccard;

  /// Relatedness threshold δ in (0, 1]; δ = 0 makes every pair related and
  /// is rejected by Validate() as the paper's footnote 2 notes.
  double delta = 0.7;

  /// Element similarity threshold α in [0, 1). Scores below α count as 0.
  double alpha = 0.0;

  /// q-gram length for edit similarities. 0 selects the largest legal value
  /// q < α/(1-α) (footnote 11), or 2 when α = 0. Ignored for Jaccard.
  int q = 0;

  /// Candidate-generation signature scheme.
  SignatureSchemeKind scheme = SignatureSchemeKind::kDichotomy;

  /// Enables the check filter (Algorithm 1). Implied by nn_filter.
  bool check_filter = true;

  /// Enables the nearest-neighbor filter (Algorithm 2).
  bool nn_filter = true;

  /// Enables reduction-based verification (Section 5.3). Only takes effect
  /// when α = 0 and 1-φ is a metric; otherwise it silently stays off.
  bool reduction = true;

  /// Enforce |R| <= |S| for SET-CONTAINMENT per Definition 2. Pairs with
  /// |S| < |R| are treated as unrelated by both the engine and the
  /// brute-force oracle.
  bool enforce_containment_size = true;

  /// When true (the default), every reported pair carries its exact maximum
  /// matching score: bound-accepted verifications run one extra solve on
  /// the matrix already in hand purely to report it. When false, those
  /// pairs report the greedy-matching *lower bound* instead — the related/
  /// unrelated decision is unchanged (it is the bound's either way), but
  /// the reported matching_score/relatedness may understate the optimum.
  /// Counted in SearchStats::bound_only_scores; an output-affecting option,
  /// so the shard-result protocol fingerprints it.
  bool exact_scores = true;

  /// Number of worker threads for discovery mode (extension; output is
  /// independent of this value).
  int num_threads = 1;

  /// Number of contiguous index shards the engine builds (extension; output
  /// is independent of this value, except that SilkMoth::SearchTopK needs
  /// exactly 1). 1 means one full index — the paper's single-index engine.
  /// Values above the set count leave trailing shards empty, which is
  /// legal.
  int num_shards = 1;

  /// Resolves q (if 0) given phi and alpha. Returns the effective q.
  int EffectiveQ() const;

  /// Validates ranges and combination constraints. Returns an empty string
  /// when valid, else a human-readable error.
  std::string Validate() const;
};

/// Largest legal q-gram length for a similarity threshold α: the largest
/// integer q with q < α/(1-α) (footnote 11). Returns fallback when α = 0.
int MaxQForAlpha(double alpha, int fallback = 2);

/// Largest q-gram length keeping the weighted signature scheme non-empty
/// for a relatedness threshold δ: the largest integer q with q < δ/(1-δ)
/// (Section 7.3). Larger q makes the engine fall back to full scans for
/// references whose bound Σ|r_i|/(|r_i|+⌈|r_i|/q⌉) cannot drop below θ.
/// Returns 0 when even q = 1 is too large (δ <= 0.5).
int MaxQForDelta(double delta);

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_OPTIONS_H_
