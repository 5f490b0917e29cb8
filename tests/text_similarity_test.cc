#include "text/similarity.h"

#include <string>

#include <gtest/gtest.h>

#include "text/tokenizer.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

Element WordElem(const std::string& text, TokenDictionary* dict) {
  static ElementArena arena;  // Outlives every element a test builds.
  return Tokenizer(TokenizerKind::kWord).MakeElement(text, dict, &arena);
}

TEST(JaccardTest, PaperExample) {
  // Section 2.1: Jac({50,Vassar,St,MA},{50,Vassar,Street,MA}) = 3/5.
  TokenDictionary dict;
  Element a = WordElem("50 Vassar St MA", &dict);
  Element b = WordElem("50 Vassar Street MA", &dict);
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  EXPECT_NEAR(jac->Score(a, b), 3.0 / 5.0, 1e-12);
}

TEST(JaccardTest, IdenticalAndDisjoint) {
  TokenDictionary dict;
  Element a = WordElem("x y z", &dict);
  Element b = WordElem("x y z", &dict);
  Element c = WordElem("p q", &dict);
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  EXPECT_DOUBLE_EQ(jac->Score(a, b), 1.0);
  EXPECT_DOUBLE_EQ(jac->Score(a, c), 0.0);
}

TEST(JaccardTest, DuplicateWordsCollapse) {
  TokenDictionary dict;
  Element a = WordElem("x x y", &dict);
  Element b = WordElem("x y y", &dict);
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  EXPECT_DOUBLE_EQ(jac->Score(a, b), 1.0);  // Both are {x, y}.
}

TEST(EdsTest, PaperExample) {
  // Eds("50 Vassar St MA", "50 Vassar Street MA") = 1 - 2*4/(15+19+4) = 15/19.
  EXPECT_NEAR(EdsOfStrings("50 Vassar St MA", "50 Vassar Street MA"),
              15.0 / 19.0, 1e-12);
}

TEST(EdsTest, BoundsAndIdentity) {
  EXPECT_DOUBLE_EQ(EdsOfStrings("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(EdsOfStrings("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EdsOfStrings("ab", ""), 0.0);  // 1 - 2*2/(2+0+2).
  const double s = EdsOfStrings("abc", "xyz");
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(NedsTest, Formula) {
  // NEds = 1 - LD/max(|x|,|y|).
  EXPECT_NEAR(NedsOfStrings("50 Vassar St MA", "50 Vassar Street MA"),
              1.0 - 4.0 / 19.0, 1e-12);
  EXPECT_DOUBLE_EQ(NedsOfStrings("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(NedsOfStrings("abc", "xyz"), 0.0);
}

TEST(SimilarityTest, EdsNeverExceedsNeds) {
  // Section 7.1 uses NEds(r, s) <= Eds(r, s)?? No: it derives
  // NEds <= ... <= Eds; verify on random strings.
  Rng rng(4);
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = 1 + rng.NextBounded(max_len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(5)));
    }
    return s;
  };
  for (int t = 0; t < 500; ++t) {
    const std::string a = random_string(15);
    const std::string b = random_string(15);
    EXPECT_LE(NedsOfStrings(a, b), EdsOfStrings(a, b) + 1e-12)
        << "a=" << a << " b=" << b;
  }
}

TEST(ThresholdTest, AlphaCutoff) {
  TokenDictionary dict;
  Element a = WordElem("1 2 3 4 5", &dict);
  Element b = WordElem("1 2 3 9 10", &dict);  // Jac = 3/7 ≈ 0.4286.
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  EXPECT_NEAR(jac->ScoreThresholded(a, b, 0.0), 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(jac->ScoreThresholded(a, b, 0.4), 3.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(jac->ScoreThresholded(a, b, 0.5), 0.0);
}

TEST(ThresholdTest, AlphaExactBoundaryKept) {
  TokenDictionary dict;
  Element a = WordElem("1 2", &dict);
  Element b = WordElem("1 3", &dict);  // Jac = 1/3.
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  EXPECT_GT(jac->ScoreThresholded(a, b, 1.0 / 3.0), 0.0);
}

TEST(ThresholdTest, EdsBandedAgreesWithPlain) {
  Element a;
  a.text = "silkmoth engine";
  Element b;
  b.text = "silkmoth enginee";
  const ElementSimilarity* eds = GetSimilarity(SimilarityKind::kEds);
  const double plain = eds->Score(a, b);
  for (double alpha : {0.0, 0.3, 0.5, 0.7, 0.9}) {
    const double thresholded = eds->ScoreThresholded(a, b, alpha);
    if (plain >= alpha) {
      EXPECT_NEAR(thresholded, plain, 1e-12) << "alpha=" << alpha;
    } else {
      EXPECT_DOUBLE_EQ(thresholded, 0.0) << "alpha=" << alpha;
    }
  }
}

TEST(ThresholdTest, NedsBandedAgreesWithPlain) {
  Element a;
  a.text = "database systems";
  Element b;
  b.text = "dtabase systms";
  const ElementSimilarity* neds = GetSimilarity(SimilarityKind::kNeds);
  const double plain = neds->Score(a, b);
  for (double alpha : {0.0, 0.4, 0.6, 0.8, 0.95}) {
    const double thresholded = neds->ScoreThresholded(a, b, alpha);
    if (plain >= alpha) {
      EXPECT_NEAR(thresholded, plain, 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(thresholded, 0.0);
    }
  }
}

// φ_α must equal the cutoff applied to the plain score, bit for bit, on
// both sides of every boundary. Word pairs of 1-70 bytes at these α span
// edit budgets 0, 1 and larger, so every kernel path is hit.
TEST(ThresholdTest, EditThresholdedIsCutoffOfPlainOnRandomPairs) {
  Rng rng(77);
  auto random_word = [&] {
    std::string s;
    const size_t len = 1 + rng.NextBounded(70);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(4)));
    }
    return s;
  };
  auto edited = [&](std::string s) {
    const uint64_t edits = rng.NextBounded(6);
    for (uint64_t e = 0; e < edits && !s.empty(); ++e) {
      const size_t pos = rng.NextBounded(s.size());
      switch (rng.NextBounded(3)) {
        case 0:
          s[pos] = static_cast<char>('a' + rng.NextBounded(4));
          break;
        case 1:
          s.insert(pos, 1, static_cast<char>('a' + rng.NextBounded(4)));
          break;
        default:
          if (s.size() > 1) s.erase(pos, 1);
      }
    }
    return s;
  };
  for (SimilarityKind kind : {SimilarityKind::kEds, SimilarityKind::kNeds}) {
    const ElementSimilarity* sim = GetSimilarity(kind);
    for (int t = 0; t < 2000; ++t) {
      Element a;
      Element b;
      const std::string x = random_word();
      const std::string y = t % 4 == 3 ? random_word() : edited(x);
      a.text = x;
      b.text = y;
      const double plain = sim->Score(a, b);
      for (double alpha : {0.5, 0.7, 0.8, 0.9}) {
        const double expected = plain >= alpha - kFloatSlack ? plain : 0.0;
        EXPECT_EQ(sim->ScoreThresholded(a, b, alpha), expected)
            << SimilarityKindName(kind) << " alpha=" << alpha << " a=" << x
            << " b=" << y;
      }
    }
  }
}

TEST(MetricDualTest, JaccardDistanceTriangle) {
  // 1 - Jac is the Jaccard distance, a metric; sample-check it because the
  // reduction-based verification (Section 5.3) depends on it.
  Rng rng(21);
  TokenDictionary dict;
  auto random_elem = [&]() {
    std::string text;
    const size_t words = 1 + rng.NextBounded(6);
    for (size_t w = 0; w < words; ++w) {
      if (!text.empty()) text.push_back(' ');
      text += "w" + std::to_string(rng.NextBounded(8));
    }
    return WordElem(text, &dict);
  };
  const ElementSimilarity* jac = GetSimilarity(SimilarityKind::kJaccard);
  for (int t = 0; t < 400; ++t) {
    Element x = random_elem(), y = random_elem(), z = random_elem();
    const double dxz = 1.0 - jac->Score(x, z);
    const double dxy = 1.0 - jac->Score(x, y);
    const double dyz = 1.0 - jac->Score(y, z);
    EXPECT_LE(dxz, dxy + dyz + 1e-9);
  }
}

TEST(MetricDualTest, EdsDualTriangle) {
  // 1 - Eds = 2*LD/(|x|+|y|+LD) is the normalized metric of Li & Liu [19].
  Rng rng(22);
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.NextBounded(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(3)));
    }
    return s;
  };
  for (int t = 0; t < 400; ++t) {
    const std::string x = random_string(10);
    const std::string y = random_string(10);
    const std::string z = random_string(10);
    const double dxz = 1.0 - EdsOfStrings(x, z);
    const double dxy = 1.0 - EdsOfStrings(x, y);
    const double dyz = 1.0 - EdsOfStrings(y, z);
    EXPECT_LE(dxz, dxy + dyz + 1e-9)
        << "x=" << x << " y=" << y << " z=" << z;
  }
}

TEST(MetricDualFlagTest, MatchesPaper) {
  EXPECT_TRUE(GetSimilarity(SimilarityKind::kJaccard)->HasMetricDual());
  EXPECT_TRUE(GetSimilarity(SimilarityKind::kEds)->HasMetricDual());
  EXPECT_FALSE(GetSimilarity(SimilarityKind::kNeds)->HasMetricDual());
}

TEST(KindNameTest, Names) {
  EXPECT_STREQ(SimilarityKindName(SimilarityKind::kJaccard), "Jac");
  EXPECT_STREQ(SimilarityKindName(SimilarityKind::kEds), "Eds");
  EXPECT_STREQ(SimilarityKindName(SimilarityKind::kNeds), "NEds");
}

}  // namespace
}  // namespace silkmoth
