#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "paper_example.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;

Options PaperOptions(Relatedness metric, SignatureSchemeKind scheme =
                                             SignatureSchemeKind::kDichotomy) {
  Options o;
  o.metric = metric;
  o.phi = SimilarityKind::kJaccard;
  o.delta = 0.7;
  o.scheme = scheme;
  return o;
}

TEST(EngineSearchTest, PaperExample2OnlyS4IsContained) {
  auto ex = MakePaperExample();
  SilkMoth engine(&ex.data, PaperOptions(Relatedness::kContainment));
  ASSERT_TRUE(engine.ok());
  auto matches = engine.Search(ex.ref);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].set_id, 3u);  // S4.
  EXPECT_NEAR(matches[0].matching_score, 0.8 + 1.0 + 3.0 / 7.0, 1e-9);
  EXPECT_NEAR(matches[0].relatedness, 0.743, 0.001);
}

TEST(EngineSearchTest, SimilarityAtSameThresholdFindsNothing) {
  // similar(R, S4) = 2.229/(3+3-2.229) ≈ 0.591 < 0.7 (Example 3's claimed
  // 0.743 is the containment value; Definition 1 gives 0.591).
  auto ex = MakePaperExample();
  SilkMoth engine(&ex.data, PaperOptions(Relatedness::kSimilarity));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine.Search(ex.ref).empty());
}

TEST(EngineSearchTest, LowerSimilarityThresholdFindsS4) {
  auto ex = MakePaperExample();
  Options o = PaperOptions(Relatedness::kSimilarity);
  o.delta = 0.55;
  SilkMoth engine(&ex.data, o);
  auto matches = engine.Search(ex.ref);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].set_id, 3u);
  EXPECT_NEAR(matches[0].relatedness, 2.2285714 / (6 - 2.2285714), 1e-6);
}

TEST(EngineSearchTest, AgreesWithBruteForceAcrossSchemes) {
  auto ex = MakePaperExample();
  for (auto scheme :
       {SignatureSchemeKind::kWeighted, SignatureSchemeKind::kCombUnweighted,
        SignatureSchemeKind::kSkyline, SignatureSchemeKind::kDichotomy}) {
    for (auto metric :
         {Relatedness::kSimilarity, Relatedness::kContainment}) {
      for (double delta : {0.3, 0.5, 0.7, 0.9}) {
        Options o = PaperOptions(metric, scheme);
        o.delta = delta;
        SilkMoth engine(&ex.data, o);
        BruteForce oracle(&ex.data, o);
        EXPECT_EQ(engine.Search(ex.ref), oracle.Search(ex.ref))
            << SignatureSchemeName(scheme) << " " << RelatednessName(metric)
            << " delta=" << delta;
      }
    }
  }
}

TEST(EngineSearchTest, AlphaVariantsAgreeWithBruteForce) {
  auto ex = MakePaperExample();
  for (double alpha : {0.0, 0.25, 0.5, 0.75}) {
    for (auto scheme :
         {SignatureSchemeKind::kSkyline, SignatureSchemeKind::kDichotomy}) {
      Options o = PaperOptions(Relatedness::kContainment, scheme);
      o.alpha = alpha;
      SilkMoth engine(&ex.data, o);
      BruteForce oracle(&ex.data, o);
      EXPECT_EQ(engine.Search(ex.ref), oracle.Search(ex.ref))
          << "alpha=" << alpha << " " << SignatureSchemeName(scheme);
    }
  }
}

TEST(EngineSearchTest, EmptyReferenceReturnsNothing) {
  auto ex = MakePaperExample();
  SilkMoth engine(&ex.data, PaperOptions(Relatedness::kContainment));
  SetRecord empty;
  EXPECT_TRUE(engine.Search(empty).empty());
}

TEST(EngineSearchTest, InvalidOptionsReported) {
  auto ex = MakePaperExample();
  Options o = PaperOptions(Relatedness::kContainment);
  o.delta = 0.0;
  SilkMoth engine(&ex.data, o);
  EXPECT_FALSE(engine.ok());
  EXPECT_NE(engine.error(), "");
  EXPECT_TRUE(engine.Search(ex.ref).empty());
}

TEST(EngineSearchTest, StatsAreAccumulated) {
  auto ex = MakePaperExample();
  SilkMoth engine(&ex.data, PaperOptions(Relatedness::kContainment));
  ShardedSearchStats sharded;
  engine.Search(ex.ref, &sharded);
  const SearchStats stats = sharded.Total();
  EXPECT_EQ(stats.references, 1u);
  EXPECT_GT(stats.initial_candidates, 0u);
  EXPECT_GT(stats.verifications, 0u);
  EXPECT_EQ(stats.results, 1u);
}

TEST(EngineSearchTest, FiltersOffStillExact) {
  auto ex = MakePaperExample();
  Options o = PaperOptions(Relatedness::kContainment);
  o.check_filter = false;
  o.nn_filter = false;
  SilkMoth engine(&ex.data, o);
  BruteForce oracle(&ex.data, o);
  EXPECT_EQ(engine.Search(ex.ref), oracle.Search(ex.ref));
}

TEST(EngineSearchTest, FilterPipelineShrinksCandidates) {
  auto ex = MakePaperExample();
  Options all = PaperOptions(Relatedness::kContainment,
                             SignatureSchemeKind::kWeighted);
  SilkMoth engine(&ex.data, all);
  ShardedSearchStats sharded;
  engine.Search(ex.ref, &sharded);
  const SearchStats stats = sharded.Total();
  // Paper walk-through: 3 initial candidates, 2 after check, 1 after NN.
  EXPECT_EQ(stats.initial_candidates, 3u);
  EXPECT_EQ(stats.after_check, 2u);
  EXPECT_EQ(stats.after_nn, 1u);
  EXPECT_EQ(stats.verifications, 1u);
}

}  // namespace
}  // namespace silkmoth
