// Edge cases a downstream user will hit: duplicate sets, degenerate
// thresholds, references larger than anything indexed, identical
// collections, and near-1 α.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/engine.h"
#include "datagen/builders.h"

namespace silkmoth {
namespace {

Options Opt(Relatedness metric, double delta, double alpha = 0.0) {
  Options o;
  o.metric = metric;
  o.phi = SimilarityKind::kJaccard;
  o.delta = delta;
  o.alpha = alpha;
  return o;
}

TEST(EdgeCaseTest, DuplicateSetsAllFound) {
  RawSets raw = {{"a b", "c d"}, {"a b", "c d"}, {"a b", "c d"}, {"x y"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SilkMoth engine(&data, Opt(Relatedness::kSimilarity, 1.0));
  auto pairs = engine.DiscoverSelf();
  // Three identical sets: pairs (0,1), (0,2), (1,2), all with score 1.
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& p : pairs) EXPECT_DOUBLE_EQ(p.relatedness, 1.0);
}

TEST(EdgeCaseTest, DeltaOneMeansExactEquivalence) {
  RawSets raw = {{"a b", "c d"}, {"a b", "c e"}, {"a b", "c d"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SilkMoth engine(&data, Opt(Relatedness::kSimilarity, 1.0));
  BruteForce oracle(&data, Opt(Relatedness::kSimilarity, 1.0));
  auto pairs = engine.DiscoverSelf();
  EXPECT_EQ(pairs, oracle.DiscoverSelf());
  ASSERT_EQ(pairs.size(), 1u);  // Only the exact duplicate pair (0, 2).
  EXPECT_EQ(pairs[0].ref_id, 0u);
  EXPECT_EQ(pairs[0].set_id, 2u);
}

TEST(EdgeCaseTest, ReferenceLargerThanEverySetUnderContainment) {
  RawSets raw = {{"a b"}, {"c d"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord big = BuildReference({"a b", "c d", "e f"}, TokenizerKind::kWord,
                                 0, &data);
  Options o = Opt(Relatedness::kContainment, 0.5);
  SilkMoth engine(&data, o);
  EXPECT_TRUE(engine.Search(big).empty());  // Definition 2: |R| <= |S|.
  o.enforce_containment_size = false;
  SilkMoth relaxed(&data, o);
  BruteForce oracle(&data, o);
  EXPECT_EQ(relaxed.Search(big), oracle.Search(big));
}

TEST(EdgeCaseTest, AlphaNearOneKeepsOnlyExactElements) {
  RawSets raw = {{"a b c", "d e f"}, {"a b c", "d e x"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  Options o = Opt(Relatedness::kContainment, 0.5, /*alpha=*/0.99);
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  SetRecord ref = BuildReference({"a b c", "d e f"}, TokenizerKind::kWord, 0,
                                 &data);
  auto matches = engine.Search(ref);
  EXPECT_EQ(matches, oracle.Search(ref));
  // Set 0 matches (both elements exact: m = 2, contain = 1); set 1 has only
  // one exact element (m = 1, contain = 0.5 >= 0.5).
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_DOUBLE_EQ(matches[0].relatedness, 1.0);
  EXPECT_DOUBLE_EQ(matches[1].relatedness, 0.5);
}

TEST(EdgeCaseTest, SingleElementSets) {
  RawSets raw = {{"alpha beta gamma"}, {"alpha beta delta"}, {"zz"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  for (double delta : {0.3, 0.6, 0.9}) {
    Options o = Opt(Relatedness::kSimilarity, delta);
    SilkMoth engine(&data, o);
    BruteForce oracle(&data, o);
    EXPECT_EQ(engine.DiscoverSelf(), oracle.DiscoverSelf()) << delta;
  }
}

TEST(EdgeCaseTest, CollectionWithEmptySet) {
  RawSets raw = {{"a b"}, {}, {"a c"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  ASSERT_EQ(data.NumSets(), 3u);  // Set ids preserved.
  Options o = Opt(Relatedness::kSimilarity, 0.3);
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);
  auto pairs = engine.DiscoverSelf();
  EXPECT_EQ(pairs, oracle.DiscoverSelf());
  for (const auto& p : pairs) {
    EXPECT_NE(p.ref_id, 1u);  // The empty set relates to nothing.
    EXPECT_NE(p.set_id, 1u);
  }
}

TEST(EdgeCaseTest, AllSetsIdenticalQuadraticOutput) {
  RawSets raw;
  for (int i = 0; i < 12; ++i) raw.push_back({"same old", "set here"});
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SilkMoth engine(&data, Opt(Relatedness::kSimilarity, 0.9));
  auto pairs = engine.DiscoverSelf();
  EXPECT_EQ(pairs.size(), 12u * 11u / 2u);
}

TEST(EdgeCaseTest, DisjointVocabulariesFindNothing) {
  RawSets raw = {{"a b", "c d"}, {"e f", "g h"}, {"i j", "k l"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SilkMoth engine(&data, Opt(Relatedness::kSimilarity, 0.1));
  ShardedSearchStats sharded;
  EXPECT_TRUE(engine.DiscoverSelf(&sharded).empty());
  // The signatures should prevent any candidate from forming at all.
  const SearchStats stats = sharded.Total();
  EXPECT_EQ(stats.initial_candidates, stats.references);  // Only self-hits.
}

TEST(EdgeCaseTest, WhitespaceOnlyElementsVanish) {
  RawSets raw = {{"  ", "\t", "real token"}};
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  ASSERT_EQ(data.sets[0].Size(), 1u);
  EXPECT_EQ(data.sets[0].elements[0].text, "real token");
}

}  // namespace
}  // namespace silkmoth
