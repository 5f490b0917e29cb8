#include "text/similarity.h"

#include <algorithm>
#include <cmath>

#include "text/levenshtein.h"

namespace silkmoth {

const char* SimilarityKindName(SimilarityKind kind) {
  switch (kind) {
    case SimilarityKind::kJaccard:
      return "Jac";
    case SimilarityKind::kEds:
      return "Eds";
    case SimilarityKind::kNeds:
      return "NEds";
  }
  return "?";
}

double JaccardOfSortedTokens(std::span<const TokenId> a,
                             std::span<const TokenId> b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double EdsOfStrings(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  const int ld = LevenshteinDistance(a, b);
  return 1.0 - 2.0 * ld / (static_cast<double>(a.size()) +
                           static_cast<double>(b.size()) + ld);
}

double NedsOfStrings(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  const int ld = LevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(ld) /
                   static_cast<double>(std::max(a.size(), b.size()));
}

double ElementSimilarity::ScoreThresholded(const Element& a, const Element& b,
                                           double alpha) const {
  const double s = Score(a, b);
  return s >= alpha - kFloatSlack ? s : 0.0;
}

namespace {

class JaccardSimilarity final : public ElementSimilarity {
 public:
  SimilarityKind kind() const override { return SimilarityKind::kJaccard; }
  bool HasMetricDual() const override { return true; }
  double Score(const Element& a, const Element& b) const override {
    return JaccardOfSortedTokens(a.tokens, b.tokens);
  }
};

class EdsSimilarity final : public ElementSimilarity {
 public:
  SimilarityKind kind() const override { return SimilarityKind::kEds; }
  bool HasMetricDual() const override { return true; }
  double Score(const Element& a, const Element& b) const override {
    return EdsOfStrings(a.text, b.text);
  }
  double ScoreThresholded(const Element& a, const Element& b,
                          double alpha) const override {
    if (alpha <= kFloatSlack) return Score(a, b);
    // Eds >= alpha  <=>  LD <= (1 - alpha) * (|a| + |b|) / (1 + alpha).
    const double len = static_cast<double>(a.text.size() + b.text.size());
    const int max_d =
        static_cast<int>(std::floor((1.0 - alpha) * len / (1.0 + alpha) +
                                    kFloatSlack));
    const int ld = BoundedLevenshtein(a.text, b.text, max_d);
    if (ld > max_d) return 0.0;
    const double s = 1.0 - 2.0 * ld / (len + ld);
    return s >= alpha - kFloatSlack ? s : 0.0;
  }
};

class NedsSimilarity final : public ElementSimilarity {
 public:
  SimilarityKind kind() const override { return SimilarityKind::kNeds; }
  bool HasMetricDual() const override { return false; }
  double Score(const Element& a, const Element& b) const override {
    return NedsOfStrings(a.text, b.text);
  }
  double ScoreThresholded(const Element& a, const Element& b,
                          double alpha) const override {
    if (alpha <= kFloatSlack) return Score(a, b);
    // NEds >= alpha  <=>  LD <= (1 - alpha) * max(|a|, |b|).
    const double len =
        static_cast<double>(std::max(a.text.size(), b.text.size()));
    const int max_d =
        static_cast<int>(std::floor((1.0 - alpha) * len + kFloatSlack));
    const int ld = BoundedLevenshtein(a.text, b.text, max_d);
    if (ld > max_d) return 0.0;
    if (a.text.empty() && b.text.empty()) return 1.0;
    const double s = 1.0 - ld / len;
    return s >= alpha - kFloatSlack ? s : 0.0;
  }
};

}  // namespace

const ElementSimilarity* GetSimilarity(SimilarityKind kind) {
  static const JaccardSimilarity jaccard;
  static const EdsSimilarity eds;
  static const NedsSimilarity neds;
  switch (kind) {
    case SimilarityKind::kJaccard:
      return &jaccard;
    case SimilarityKind::kEds:
      return &eds;
    case SimilarityKind::kNeds:
      return &neds;
  }
  return &jaccard;
}

}  // namespace silkmoth
