#include "baseline/fastjoin.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "datagen/dblp.h"

namespace silkmoth {
namespace {

Collection TitleData(size_t n, uint64_t seed, int q) {
  DblpParams p;
  p.num_titles = n;
  p.vocabulary = 50;
  p.min_words = 1;
  p.max_words = 3;
  p.duplicate_rate = 0.4;
  p.typo_rate = 0.25;
  p.seed = seed;
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram, q);
}

Options StringMatchingOptions(double delta = 0.7, double alpha = 0.8) {
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.phi = SimilarityKind::kEds;
  o.delta = delta;
  o.alpha = alpha;
  return o;
}

TEST(FastJoinTest, RejectsContainment) {
  Options o = StringMatchingOptions();
  o.metric = Relatedness::kContainment;
  Collection data = TitleData(10, 1, o.EffectiveQ());
  FastJoin fj(&data, o);
  EXPECT_FALSE(fj.ok());
  EXPECT_NE(fj.error().find("SET-SIMILARITY"), std::string::npos);
}

TEST(FastJoinTest, RejectsJaccard) {
  Options o = StringMatchingOptions();
  o.phi = SimilarityKind::kJaccard;
  Collection data = TitleData(10, 2, 3);
  FastJoin fj(&data, o);
  EXPECT_FALSE(fj.ok());
  EXPECT_NE(fj.error().find("edit similarity"), std::string::npos);
}

TEST(FastJoinTest, ForcesBaselineConfiguration) {
  Options o = StringMatchingOptions();
  o.scheme = SignatureSchemeKind::kDichotomy;  // Should be overridden.
  o.check_filter = true;
  o.nn_filter = true;
  Collection data = TitleData(10, 3, o.EffectiveQ());
  FastJoin fj(&data, o);
  ASSERT_TRUE(fj.ok());
  EXPECT_EQ(fj.options().scheme, SignatureSchemeKind::kCombUnweighted);
  EXPECT_FALSE(fj.options().check_filter);
  EXPECT_FALSE(fj.options().nn_filter);
  EXPECT_FALSE(fj.options().reduction);
}

TEST(FastJoinTest, ExactlyMatchesBruteForce) {
  // FastJoin is slower but still exact; its discovery output must equal the
  // oracle's on the string matching workload.
  for (double alpha : {0.7, 0.8}) {
    Options o = StringMatchingOptions(0.6, alpha);
    Collection data = TitleData(35, 4, o.EffectiveQ());
    FastJoin fj(&data, o);
    ASSERT_TRUE(fj.ok()) << fj.error();
    BruteForce oracle(&data, [&] {
      Options b = o;
      b.reduction = false;
      return b;
    }());
    EXPECT_EQ(fj.DiscoverSelf(), oracle.DiscoverSelf()) << "alpha " << alpha;
  }
}

TEST(FastJoinTest, SearchMatchesBruteForce) {
  Options o = StringMatchingOptions(0.6, 0.75);
  Collection data = TitleData(30, 5, o.EffectiveQ());
  FastJoin fj(&data, o);
  ASSERT_TRUE(fj.ok());
  Options b = o;
  b.reduction = false;
  BruteForce oracle(&data, b);
  for (size_t r = 0; r < data.sets.size(); r += 6) {
    EXPECT_EQ(fj.Search(data.sets[r]), oracle.Search(data.sets[r]));
  }
}

TEST(FastJoinTest, GeneratesMoreCandidatesThanSilkMoth) {
  // The point of Figure 8: the unweighted signature + no filters verifies
  // far more candidates than the full engine.
  Options o = StringMatchingOptions(0.7, 0.8);
  Collection data = TitleData(60, 6, o.EffectiveQ());
  FastJoin fj(&data, o);
  SilkMoth sm(&data, o);
  ASSERT_TRUE(fj.ok());
  ASSERT_TRUE(sm.ok());
  ShardedSearchStats fj_stats, sm_stats;
  auto a = fj.DiscoverSelf(&fj_stats);
  auto b = sm.DiscoverSelf(&sm_stats);
  EXPECT_EQ(a, b);  // Same exact answers...
  EXPECT_GE(fj_stats.Total().verifications,
            sm_stats.Total().verifications);  // ...more work.
}

}  // namespace
}  // namespace silkmoth
