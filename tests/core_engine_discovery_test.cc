#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "paper_example.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;

Collection SmallSchemaData(size_t n, uint64_t seed) {
  WebTableParams p = SchemaMatchingDefaults(n, seed);
  p.min_tokens = 3;
  p.max_tokens = 6;
  return BuildCollection(GenerateSchemaSets(p), TokenizerKind::kWord);
}

TEST(EngineDiscoveryTest, SelfDiscoveryMatchesBruteForce) {
  Collection data = SmallSchemaData(40, 3);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.phi = SimilarityKind::kJaccard;
  o.delta = 0.7;
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  EXPECT_EQ(engine.DiscoverSelf(), oracle.DiscoverSelf());
}

TEST(EngineDiscoveryTest, SelfDiscoveryDeduplicatesSimilarityPairs) {
  Collection data = SmallSchemaData(40, 4);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.6;
  SilkMoth engine(&data, o);
  auto pairs = engine.DiscoverSelf();
  for (const PairMatch& p : pairs) {
    EXPECT_LT(p.ref_id, p.set_id);  // Each unordered pair once; no self.
  }
}

TEST(EngineDiscoveryTest, ContainmentSelfDiscoveryKeepsBothDirections) {
  // Build data with a planted superset pair: A ⊂ B means contain(A,B) high
  // but contain(B,A) possibly low; directions are distinct.
  RawSets raw = {
      {"x1 y1", "x2 y2"},
      {"x1 y1", "x2 y2", "x3 y3", "x4 y4"},
      {"p q r"},
  };
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  Options o;
  o.metric = Relatedness::kContainment;
  o.delta = 0.9;
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  auto pairs = engine.DiscoverSelf();
  EXPECT_EQ(pairs, oracle.DiscoverSelf());
  // contain(set0, set1) = 1 must be found as (0, 1).
  bool found_0_1 = false;
  for (const PairMatch& p : pairs) {
    found_0_1 |= p.ref_id == 0 && p.set_id == 1;
    EXPECT_NE(p.ref_id, p.set_id);
  }
  EXPECT_TRUE(found_0_1);
}

TEST(EngineDiscoveryTest, CrossCollectionDiscovery) {
  Collection data = SmallSchemaData(30, 5);
  Collection refs = SmallSchemaData(10, 6);
  // Reference collection must share the dictionary.
  refs = BuildCollectionWithDict(GenerateSchemaSets(
                                     SchemaMatchingDefaults(10, 6)),
                                 TokenizerKind::kWord, 0, data.dict);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.5;
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  EXPECT_EQ(engine.Discover(refs), oracle.Discover(refs));
}

TEST(EngineDiscoveryTest, MultiThreadedEqualsSingleThreaded) {
  Collection data = SmallSchemaData(60, 7);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.6;
  o.num_threads = 1;
  SilkMoth single(&data, o);
  o.num_threads = 4;
  SilkMoth multi(&data, o);
  ShardedSearchStats s1, s4;
  auto r1 = single.DiscoverSelf(&s1);
  auto r4 = multi.DiscoverSelf(&s4);
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(s1.Total().references, s4.Total().references);
  EXPECT_EQ(s1.Total().results, s4.Total().results);
}

TEST(EngineDiscoveryTest, MoreThreadsThanReferences) {
  Collection data = SmallSchemaData(3, 8);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.6;
  o.num_threads = 16;
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  EXPECT_EQ(engine.DiscoverSelf(), oracle.DiscoverSelf());
}

TEST(EngineDiscoveryTest, ResultsAreSorted) {
  Collection data = SmallSchemaData(50, 9);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.5;
  o.num_threads = 3;
  SilkMoth engine(&data, o);
  auto pairs = engine.DiscoverSelf();
  for (size_t i = 1; i < pairs.size(); ++i) {
    const bool ordered =
        pairs[i - 1].ref_id < pairs[i].ref_id ||
        (pairs[i - 1].ref_id == pairs[i].ref_id &&
         pairs[i - 1].set_id < pairs[i].set_id);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

TEST(EngineDiscoveryTest, PaperDataDiscovery) {
  auto ex = MakePaperExample();
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.5;
  SilkMoth engine(&ex.data, o);
  BruteForce oracle(&ex.data, o);
  EXPECT_EQ(engine.DiscoverSelf(), oracle.DiscoverSelf());
}

TEST(EngineDiscoveryTest, DiscoveryStatsCountReferences) {
  Collection data = SmallSchemaData(25, 10);
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.7;
  SilkMoth engine(&data, o);
  ShardedSearchStats stats;
  engine.DiscoverSelf(&stats);
  EXPECT_EQ(stats.Total().references, 25u);
}

}  // namespace
}  // namespace silkmoth
