#include "matching/verifier.h"

#include <gtest/gtest.h>

#include "datagen/builders.h"
#include "paper_example.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;

TEST(VerifierTest, PaperExampleMatchingScore) {
  // Example 2: |R ∩̃ S4| = 0.8 + 1 + 3/7 ≈ 2.229.
  auto ex = MakePaperExample();
  MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                               /*use_reduction=*/false);
  const double m = verifier.Score(ex.ref, ex.data.sets[3]);
  EXPECT_NEAR(m, 0.8 + 1.0 + 3.0 / 7.0, 1e-9);
}

TEST(VerifierTest, PaperExampleOtherSetsBelowThreshold) {
  auto ex = MakePaperExample();
  MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                               false);
  const double theta = 0.7 * 3;
  for (int s = 0; s < 3; ++s) {
    EXPECT_LT(verifier.Score(ex.ref, ex.data.sets[s]), theta) << "S" << s + 1;
  }
}

TEST(VerifierTest, ReductionPreservesScoreOnPaperData) {
  auto ex = MakePaperExample();
  MaxMatchingVerifier plain(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                            false);
  MaxMatchingVerifier reduced(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                              true);
  for (const SetRecord& s : ex.data.sets) {
    EXPECT_NEAR(plain.Score(ex.ref, s), reduced.Score(ex.ref, s), 1e-9);
  }
}

TEST(VerifierTest, ReductionRemovesIdenticalPairs) {
  RawSets raw = {{"a b", "c d", "e f"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord r = BuildReference({"a b", "c d", "x y"}, TokenizerKind::kWord, 0,
                               &data);
  MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                               true);
  ASSERT_TRUE(verifier.ReductionActive());
  MatchingStats stats;
  const double m = verifier.Score(r, data.sets[0], &stats);
  EXPECT_EQ(stats.reduced_pairs, 2u);  // "a b" and "c d".
  EXPECT_NEAR(m, 2.0, 1e-12);          // "x y" matches nothing.
  EXPECT_EQ(stats.matrix_rows, 1u);
  EXPECT_EQ(stats.matrix_cols, 1u);
}

TEST(VerifierTest, ReductionHandlesDuplicateElements) {
  // R has "a" twice, S has "a" once: only one identical pair may be reduced.
  RawSets raw = {{"a", "z z2 z3"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord r = BuildReference({"a", "a"}, TokenizerKind::kWord, 0, &data);
  MaxMatchingVerifier plain(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                            false);
  MaxMatchingVerifier reduced(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                              true);
  MatchingStats stats;
  const double a = plain.Score(r, data.sets[0]);
  const double b = reduced.Score(r, data.sets[0], &stats);
  EXPECT_EQ(stats.reduced_pairs, 1u);
  EXPECT_NEAR(a, b, 1e-12);
}

// The reduction's notion of "identical": the token set for Jaccard (word
// order and repeats do not matter), the raw text for edit similarity.
TEST(VerifierTest, ReductionIdentityIsTokenSetForJaccard) {
  RawSets raw = {{"a b", "a c"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord r = BuildReference({"b a a"}, TokenizerKind::kWord, 0, &data);
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kJaccard), 0.0, true);
  MatchingStats stats;
  EXPECT_DOUBLE_EQ(v.Score(r, data.sets[0], &stats), 1.0);
  EXPECT_EQ(stats.reduced_pairs, 1u);
}

TEST(VerifierTest, ReductionIdentityIsTextForEds) {
  RawSets raw = {{"a b"}};
  Collection data = BuildCollection(raw, TokenizerKind::kQGram, 2);
  SetRecord r = BuildReference({"b a"}, TokenizerKind::kQGram, 2, &data);
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kEds), 0.0, true);
  MatchingStats stats;
  v.Score(r, data.sets[0], &stats);
  EXPECT_EQ(stats.reduced_pairs, 0u);
  SetRecord same = BuildReference({"a b"}, TokenizerKind::kQGram, 2, &data);
  EXPECT_DOUBLE_EQ(v.Score(same, data.sets[0], &stats), 1.0);
  EXPECT_EQ(stats.reduced_pairs, 1u);
}

TEST(VerifierTest, ReductionInactiveWithAlpha) {
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kJaccard), 0.5, true);
  EXPECT_FALSE(v.ReductionActive());
}

TEST(VerifierTest, ReductionInactiveForNeds) {
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kNeds), 0.0, true);
  EXPECT_FALSE(v.ReductionActive());
}

TEST(VerifierTest, ReductionActiveForEds) {
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kEds), 0.0, true);
  EXPECT_TRUE(v.ReductionActive());
}

TEST(VerifierTest, EmptySets) {
  MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kJaccard), 0.0, true);
  SetRecord empty;
  SetRecord other;
  other.AddElement("x", {0});
  EXPECT_DOUBLE_EQ(v.Score(empty, other), 0.0);
  EXPECT_DOUBLE_EQ(v.Score(other, empty), 0.0);
  EXPECT_DOUBLE_EQ(v.Score(empty, empty), 0.0);
}

// A Jaccard element with no tokens scores 0 even against itself, so the
// reduction must not pair two of them as identical.
TEST(VerifierTest, EmptyTokenElementsAreNeverReductionPaired) {
  SetRecord r;
  r.AddElement("", {});
  SetRecord s;
  s.AddElement("", {});
  for (const bool reduction : {false, true}) {
    MaxMatchingVerifier v(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                          reduction);
    EXPECT_EQ(v.ReductionActive(), reduction);
    MatchingStats stats;
    EXPECT_DOUBLE_EQ(v.Score(r, s, &stats), 0.0) << reduction;
    EXPECT_EQ(stats.reduced_pairs, 0u) << reduction;
    const VerifyDecision d = v.ScoreDecision(r, s, /*theta=*/0.5, nullptr,
                                             kFloatSlack,
                                             /*need_exact_score=*/true);
    EXPECT_FALSE(d.related) << reduction;
    EXPECT_DOUBLE_EQ(d.score, 0.0) << reduction;
  }
}

TEST(VerifierTest, AlphaZeroesWeakEdges) {
  RawSets raw = {{"a b c d"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord r =
      BuildReference({"a b x y"}, TokenizerKind::kWord, 0, &data);  // Jac=1/3.
  MaxMatchingVerifier lo(GetSimilarity(SimilarityKind::kJaccard), 0.0, false);
  MaxMatchingVerifier hi(GetSimilarity(SimilarityKind::kJaccard), 0.5, false);
  EXPECT_NEAR(lo.Score(r, data.sets[0]), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(hi.Score(r, data.sets[0]), 0.0);
}

// Property: reduction never changes the score, across random Jaccard and Eds
// instances with planted duplicates.
class ReductionEquivalenceSweep
    : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(ReductionEquivalenceSweep, ScoreUnchanged) {
  const SimilarityKind kind = GetParam();
  const bool edit = IsEditSimilarity(kind);
  Rng rng(kind == SimilarityKind::kJaccard ? 101 : 102);
  for (int trial = 0; trial < 60; ++trial) {
    auto random_text = [&]() {
      std::string t;
      const size_t words = 1 + rng.NextBounded(3);
      for (size_t w = 0; w < words; ++w) {
        if (!t.empty()) t.push_back(' ');
        t += "w" + std::to_string(rng.NextBounded(6));
      }
      return t;
    };
    std::vector<std::string> r_texts, s_texts;
    const size_t nr = 1 + rng.NextBounded(5);
    const size_t ns = 1 + rng.NextBounded(5);
    for (size_t i = 0; i < nr; ++i) r_texts.push_back(random_text());
    for (size_t i = 0; i < ns; ++i) {
      // Half the time copy an element from R to create identical pairs.
      if (!r_texts.empty() && rng.NextBool(0.5)) {
        s_texts.push_back(r_texts[rng.NextBounded(r_texts.size())]);
      } else {
        s_texts.push_back(random_text());
      }
    }
    RawSets raw = {s_texts};
    Collection data = BuildCollection(
        raw, edit ? TokenizerKind::kQGram : TokenizerKind::kWord, 2);
    SetRecord r = BuildReference(
        r_texts, edit ? TokenizerKind::kQGram : TokenizerKind::kWord, 2,
        &data);
    MaxMatchingVerifier plain(GetSimilarity(kind), 0.0, false);
    MaxMatchingVerifier reduced(GetSimilarity(kind), 0.0, true);
    EXPECT_NEAR(plain.Score(r, data.sets[0]), reduced.Score(r, data.sets[0]),
                1e-9)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ReductionEquivalenceSweep,
                         ::testing::Values(SimilarityKind::kJaccard,
                                           SimilarityKind::kEds));

}  // namespace
}  // namespace silkmoth
