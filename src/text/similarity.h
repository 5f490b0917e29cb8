#ifndef SILKMOTH_TEXT_SIMILARITY_H_
#define SILKMOTH_TEXT_SIMILARITY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "text/dataset.h"

namespace silkmoth {

/// One-sided floating-point slack. Pruning comparisons subtract it so that
/// rounding noise can only weaken a filter (keep a candidate), never drop a
/// true result; acceptance comparisons subtract it so a score equal to the
/// threshold up to rounding is accepted.
inline constexpr double kFloatSlack = 1e-9;

/// Element similarity functions supported by the engine (Section 2.1).
enum class SimilarityKind {
  kJaccard,  ///< |x ∩ y| / |x ∪ y| over word tokens.
  kEds,      ///< 1 - 2*LD / (|x| + |y| + LD), metric dual (preferred).
  kNeds,     ///< 1 - LD / max(|x|, |y|), no metric-dual guarantee.
};

/// Human-readable name ("Jac", "Eds", "NEds").
const char* SimilarityKindName(SimilarityKind kind);

/// True for character-based (edit) similarities, which tokenize to q-grams.
inline bool IsEditSimilarity(SimilarityKind kind) {
  return kind != SimilarityKind::kJaccard;
}

/// Element-to-element similarity φ in [0, 1].
///
/// Implementations are stateless and thread-safe. `ScoreThresholded` applies
/// the α cutoff φ_α of Section 2.1: scores below α collapse to 0. Jaccard
/// compares the sorted-unique `tokens`; the edit similarities compare `text`
/// and turn α into an edit budget for BoundedLevenshtein.
class ElementSimilarity {
 public:
  virtual ~ElementSimilarity() = default;

  virtual SimilarityKind kind() const = 0;

  /// True when 1 - φ satisfies the triangle inequality, which legalizes
  /// reduction-based verification (Section 5.3): Jaccard and Eds, not NEds.
  virtual bool HasMetricDual() const = 0;

  /// Plain φ(a, b) with no threshold.
  virtual double Score(const Element& a, const Element& b) const = 0;

  /// φ_α(a, b): Score if >= alpha (within slack), else 0. alpha == 0 is the
  /// unthresholded case. Implementations may shortcut via alpha.
  virtual double ScoreThresholded(const Element& a, const Element& b,
                                  double alpha) const;
};

/// Factory for the similarity singleton of a given kind. The returned
/// pointer refers to a process-lifetime object; do not delete it.
const ElementSimilarity* GetSimilarity(SimilarityKind kind);

/// Jaccard similarity of two sorted-unique token id sequences.
double JaccardOfSortedTokens(std::span<const TokenId> a,
                             std::span<const TokenId> b);

/// Eds(a, b) = 1 - 2*LD / (|a| + |b| + LD) from the raw strings.
double EdsOfStrings(std::string_view a, std::string_view b);

/// NEds(a, b) = 1 - LD / max(|a|, |b|) from the raw strings.
double NedsOfStrings(std::string_view a, std::string_view b);

/// Key identifying elements that are "identical" for the reduction-based
/// verification: text for edit similarities, token set for Jaccard.
std::string IdentityKey(const Element& e, SimilarityKind kind);

}  // namespace silkmoth

#endif  // SILKMOTH_TEXT_SIMILARITY_H_
