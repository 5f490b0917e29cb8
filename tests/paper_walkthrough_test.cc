// Executable documentation: the paper's running example (Table 2, Figure 2,
// Examples 2 and 6-9) traced through every pipeline stage with the exact
// intermediate values the paper reports. If this test fails, the repository
// no longer implements the paper.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/verifier.h"
#include "paper_example.h"
#include "sig/scheme.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;
using test::T;

TEST(PaperWalkthrough, FullPipeline) {
  auto ex = MakePaperExample();

  // --- Stage 0: tokens and the inverted index (Figure 2, left). ---
  InvertedIndex index;
  index.Build(ex.data);
  const size_t costs[] = {9, 8, 7, 6, 6, 6, 5, 3, 3, 1, 1, 1};
  for (int t = 1; t <= 12; ++t) {
    ASSERT_EQ(index.ListSize(T(t)), costs[t - 1]) << "t" << t;
  }

  // --- Stage 1: signature generation (Examples 6/7). ---
  // δ = 0.7, |R| = 3, θ = 2.1; greedy weighted signature is
  // K_R = {{t8}, {t9,t10}, {t11,t12}} with bound sum 2.0 < θ.
  Options opt;
  opt.metric = Relatedness::kContainment;
  opt.phi = SimilarityKind::kJaccard;
  opt.delta = 0.7;
  SchemeParams params;
  params.scheme = SignatureSchemeKind::kWeighted;
  params.phi = opt.phi;
  params.theta = 2.1;
  const Signature sig = WeightedSignature(ex.ref, index, params);
  ASSERT_TRUE(sig.valid);
  ASSERT_EQ(sig.FlatTokens(),
            (std::vector<TokenId>{T(8), T(9), T(10), T(11), T(12)}));
  ASSERT_NEAR(sig.miss_bound_sum, 2.0, 1e-12);

  // --- Stage 2: candidate selection (Example 3 / Figure 2 right). ---
  // The signature tokens touch S2, S3, S4; S1 is never considered.
  CheckFilterStats cstats;
  auto candidates = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                             opt, /*apply_check=*/false,
                                             &cstats);
  ASSERT_EQ(cstats.initial_candidates, 3u);

  // --- Stage 3: check filter (Example 8). ---
  // Jac(r1, s21) = 0.6 < 0.8 and Jac(r2, s23) = 0.25 < 0.6 are all of S2's
  // matches -> S2 pruned. S3 and S4 have strong matches and survive.
  candidates = SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt,
                                        /*apply_check=*/true);
  ASSERT_EQ(candidates.size(), 2u);
  ASSERT_EQ(candidates[0].set_id, 2u);  // S3
  ASSERT_EQ(candidates[1].set_id, 3u);  // S4

  // --- Stage 4: nearest-neighbor filter (Example 9). ---
  // For S3: est = 5/6 (exact NN of r1, reused) + 0.6 + 0.6 ≈ 2.03 < 2.1.
  // S3 is pruned; S4's estimate stays above θ and survives.
  auto refined = NnFilterCandidates(ex.ref, sig, std::move(candidates),
                                    ex.data, index, opt);
  ASSERT_EQ(refined.size(), 1u);
  ASSERT_EQ(refined[0].set_id, 3u);  // S4

  // NN values the paper quotes: NN(r1, S3) = 5/6, NN(r2, S3) = 0.125.
  EXPECT_NEAR(NnSearch(ex.ref.elements[0], 2, ex.data, index, opt),
              5.0 / 6.0, 1e-12);
  EXPECT_NEAR(NnSearch(ex.ref.elements[1], 2, ex.data, index, opt), 0.125,
              1e-12);

  // --- Stage 5: verification (Example 2). ---
  // |R ∩̃ S4| = 0.8 + 1 + 3/7 ≈ 2.229 >= θ; containment ≈ 0.743 >= 0.7.
  MaxMatchingVerifier verifier(GetSimilarity(opt.phi), 0.0, true);
  const double m = verifier.Score(ex.ref, ex.data.sets[3]);
  EXPECT_NEAR(m, 2.2285714, 1e-6);
  EXPECT_NEAR(m / 3.0, 0.743, 0.001);

  // --- End to end: the engine returns exactly S4. ---
  SilkMoth engine(&ex.data, opt);
  auto result = engine.Search(ex.ref);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].set_id, 3u);
}

TEST(PaperWalkthrough, Example13DichotomyPipeline) {
  // α = δ = 0.7: the dichotomy signature is {t11, t12}; only S3 (which
  // contains t11/t12 in s32) is even considered, and verification rejects
  // it — the whole search does a single maximum matching.
  auto ex = MakePaperExample();
  Options opt;
  opt.metric = Relatedness::kContainment;
  opt.phi = SimilarityKind::kJaccard;
  opt.delta = 0.7;
  opt.alpha = 0.7;
  opt.scheme = SignatureSchemeKind::kDichotomy;
  SilkMoth engine(&ex.data, opt);
  ShardedSearchStats stats;
  auto result = engine.Search(ex.ref, &stats);
  EXPECT_EQ(stats.Total().initial_candidates, 1u);  // Only S3 shares t11/t12.
  // Under φ_0.7 the alignment scores for S4 fall below θ as well; nothing
  // is related, matching the brute-force oracle.
  EXPECT_TRUE(result.empty());
}

}  // namespace
}  // namespace silkmoth
