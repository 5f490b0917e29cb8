// SilkMoth over Options::num_shards index shards, on randomized corpora:
//
//  1. Parity: discovery (self-join and cross-collection) and search on a
//     k-shard engine return *identical* PairMatch/SearchMatch sets — ids
//     and scores — to the one-shard engine, across metrics (similarity/
//     containment), similarity functions (Jaccard/Eds), shard counts, and
//     thread counts. Identity is exact (operator==), not within-tolerance:
//     verification only ever sees the (reference, set) records, so scores
//     cannot depend on how the index was partitioned.
//  2. Shard layout: the engine builds exactly num_shards shards whose
//     ranges are contiguous, disjoint, ascending, and cover exactly
//     [0, num_sets) — including the shards > sets edge case, where trailing
//     shards are empty. One shard is the whole collection.
//  3. Stats: per-shard SearchStats record the passes against that shard
//     only; empty shards record nothing (an empty collection records
//     nothing at all); Total() equals the slot-wise sum; per-shard
//     `results` sum to the one-shard pass results.
//  4. Top-k is single-index: SearchTopK on a multi-shard engine is empty.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"

namespace silkmoth {
namespace {

struct ShardedCase {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
};

Options MakeOptions(const ShardedCase& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const ShardedCase& cfg, size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

class ShardParitySweep : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardParitySweep, DiscoverSelfMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40, /*seed=*/11);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.DiscoverSelf();
  ASSERT_FALSE(expected.empty()) << cfg.name
      << ": corpus produced no related pairs to compare";

  for (int shards : {1, 2, 3, 7, 16}) {
    for (int threads : {1, 3}) {
      Options opt = base;
      opt.num_shards = shards;
      opt.num_threads = threads;
      SilkMoth engine(&data, opt);
      ASSERT_TRUE(engine.ok()) << engine.error();
      EXPECT_EQ(engine.DiscoverSelf(), expected)
          << cfg.name << ": shards=" << shards << " threads=" << threads;
    }
  }
}

TEST_P(ShardParitySweep, CrossCollectionDiscoverMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 32, /*seed=*/21);

  DblpParams p;
  p.num_titles = 12;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = 22;  // Overlapping vocabulary, fresh draws.
  const Collection refs =
      IsEditSimilarity(cfg.phi)
          ? BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kQGram,
                                    base.EffectiveQ(), data.dict)
          : BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kWord,
                                    0, data.dict);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.Discover(refs);

  for (int shards : {2, 5}) {
    Options opt = base;
    opt.num_shards = shards;
    opt.num_threads = 2;
    SilkMoth engine(&data, opt);
    ASSERT_TRUE(engine.ok()) << engine.error();
    EXPECT_EQ(engine.Discover(refs), expected)
        << cfg.name << ": shards=" << shards;
  }
}

TEST_P(ShardParitySweep, SearchMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 30, /*seed=*/31);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();

  Options opt = base;
  opt.num_shards = 4;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();

  size_t matched = 0;
  for (const SetRecord& ref : data.sets) {
    const std::vector<SearchMatch> expected = single.Search(ref);
    EXPECT_EQ(engine.Search(ref), expected) << cfg.name;
    matched += expected.size();
  }
  EXPECT_GT(matched, 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ShardParitySweep,
    ::testing::Values(
        ShardedCase{"similarity_jaccard", Relatedness::kSimilarity,
                    SimilarityKind::kJaccard, 0.6, 0.4},
        ShardedCase{"containment_jaccard", Relatedness::kContainment,
                    SimilarityKind::kJaccard, 0.7, 0.0},
        ShardedCase{"similarity_eds", Relatedness::kSimilarity,
                    SimilarityKind::kEds, 0.5, 0.6}),
    [](const ::testing::TestParamInfo<ShardedCase>& info) {
      return info.param.name;
    });

// --- Shard layout edge cases -----------------------------------------------

TEST(ShardLayout, RangesPartitionTheCollection) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 23, /*seed=*/41);
  for (int shards : {1, 2, 5, 23, 64}) {
    Options opt = MakeOptions(cfg);
    opt.num_shards = shards;
    SilkMoth engine(&data, opt);
    ASSERT_TRUE(engine.ok()) << engine.error();
    ASSERT_EQ(engine.num_shards(), static_cast<size_t>(shards));

    uint32_t cursor = 0;
    size_t postings = 0;
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      const SetIdRange range = engine.shard_range(s);
      EXPECT_EQ(range.begin, cursor) << "shards=" << shards << " s=" << s;
      EXPECT_LE(range.begin, range.end);
      cursor = range.end;
      postings += engine.shard_index(s).TotalPostings();
      // An empty shard must carry an empty index.
      if (range.begin == range.end) {
        EXPECT_EQ(engine.shard_index(s).TotalPostings(), 0u);
      }
    }
    EXPECT_EQ(cursor, data.sets.size()) << "shards=" << shards;

    // The shard indexes together hold exactly the full index's postings.
    InvertedIndex full;
    full.Build(data);
    EXPECT_EQ(postings, full.TotalPostings()) << "shards=" << shards;
  }
}

TEST(ShardLayout, EngineHonorsNumShards) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.4};
  Collection data = MakeData(cfg, 30, /*seed=*/44);
  Options opt = MakeOptions(cfg);
  opt.num_shards = 3;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  ASSERT_EQ(engine.num_shards(), 3u);
  const std::vector<SetIdRange> ranges = ComputeShardRanges(data, 3);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.shard_range(s).begin, ranges[s].begin) << "s=" << s;
    EXPECT_EQ(engine.shard_range(s).end, ranges[s].end) << "s=" << s;
  }
  // Each query method reports one funnel slot per shard, and no shard's
  // index holds the whole collection.
  ShardedSearchStats discover_stats, search_stats;
  engine.DiscoverSelf(&discover_stats);
  engine.Search(data.sets[0], &search_stats);
  EXPECT_EQ(discover_stats.per_shard.size(), 3u);
  EXPECT_EQ(search_stats.per_shard.size(), 3u);
  InvertedIndex full;
  full.Build(data);
  EXPECT_LT(engine.index().TotalPostings(), full.TotalPostings());
}

TEST(ShardLayout, MoreShardsThanSetsStillExact) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 10, /*seed=*/43);

  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());

  Options opt = MakeOptions(cfg);
  opt.num_shards = 64;
  opt.num_threads = 2;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_EQ(engine.DiscoverSelf(), single.DiscoverSelf());
}

TEST(ShardLayout, EmptyCollection) {
  Collection data;
  Options opt;
  opt.num_shards = 4;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_TRUE(engine.DiscoverSelf().empty());
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const SetIdRange range = engine.shard_range(s);
    EXPECT_EQ(range.begin, range.end);
  }
}

TEST(ShardLayout, TopKIsSingleIndexOnly) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.4, 0.0};
  Collection data = MakeData(cfg, 30, /*seed=*/45);
  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok()) << single.error();
  Options opt = MakeOptions(cfg);
  opt.num_shards = 2;
  SilkMoth sharded(&data, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.error();

  size_t found = 0;
  for (const SetRecord& ref : data.sets) {
    found += single.SearchTopK(ref, 3).size();
    ShardedSearchStats stats;
    EXPECT_TRUE(sharded.SearchTopK(ref, 3, &stats).empty());
    EXPECT_EQ(stats.Total().references, 0u);
  }
  EXPECT_GT(found, 0u);
}

TEST(ShardLayout, InvalidShardCountRejected) {
  Collection data;
  Options opt;
  opt.num_shards = 0;
  SilkMoth engine(&data, opt);
  EXPECT_FALSE(engine.ok());
  EXPECT_NE(engine.error().find("num_shards"), std::string::npos);
  EXPECT_TRUE(engine.DiscoverSelf().empty());
  // A not-ok engine builds no shards; index() is then an empty index.
  EXPECT_EQ(engine.num_shards(), 0u);
  EXPECT_EQ(engine.index().TotalPostings(), 0u);
}

// --- Per-shard stats aggregation -------------------------------------------

TEST(ShardStats, PerShardCountersAggregateToGlobal) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.4};
  Collection data = MakeData(cfg, 30, /*seed=*/51);

  Options opt = MakeOptions(cfg);
  opt.num_shards = 4;
  opt.num_threads = 3;
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();

  ShardedSearchStats stats;
  engine.DiscoverSelf(&stats);
  ASSERT_EQ(stats.per_shard.size(), 4u);

  // Every non-empty shard sees every (non-empty) reference exactly once.
  size_t non_empty_refs = 0;
  for (const SetRecord& ref : data.sets) {
    if (!ref.Empty()) ++non_empty_refs;
  }
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const SetIdRange range = engine.shard_range(s);
    if (range.begin == range.end) {
      EXPECT_EQ(stats.per_shard[s].references, 0u) << "empty shard " << s;
    } else {
      EXPECT_EQ(stats.per_shard[s].references, non_empty_refs)
          << "shard " << s;
    }
  }

  // Total() is the slot-wise sum.
  SearchStats manual;
  for (const SearchStats& s : stats.per_shard) manual.Merge(s);
  const SearchStats total = stats.Total();
  EXPECT_EQ(total.references, manual.references);
  EXPECT_EQ(total.verifications, manual.verifications);
  EXPECT_EQ(total.results, manual.results);
  EXPECT_EQ(total.initial_candidates, manual.initial_candidates);

  // Shards never overlap, so result counts (pre-dedup search-pass results)
  // sum to exactly what the one-shard engine's passes report.
  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());
  ShardedSearchStats single_stats;
  single.DiscoverSelf(&single_stats);
  ASSERT_EQ(single_stats.per_shard.size(), 1u);
  EXPECT_EQ(total.results, single_stats.Total().results);

  // The human-readable dump mentions each shard.
  const std::string dump = stats.ToString();
  EXPECT_NE(dump.find("per shard"), std::string::npos);
}

// Empty shards record nothing, so neither does an engine over an empty
// collection — at one shard as at several: no passes and no query-side
// stamping, for every query method.
TEST(ShardStats, EmptyCollectionRecordsNothing) {
  Collection data;
  const Collection refs =
      BuildCollection(RawSets{{"a b", "c"}, {"d"}}, TokenizerKind::kWord);
  for (int shards : {1, 4}) {
    Options opt;
    opt.num_shards = shards;
    SilkMoth engine(&data, opt);
    ASSERT_TRUE(engine.ok()) << engine.error();
    ShardedSearchStats stats;
    EXPECT_TRUE(engine.DiscoverSelf(&stats).empty());
    EXPECT_TRUE(engine.Discover(refs, &stats).empty());
    EXPECT_TRUE(engine.Search(refs.sets[0], &stats).empty());
    EXPECT_TRUE(engine.SearchTopK(refs.sets[0], 2, &stats).empty());
    ASSERT_EQ(stats.per_shard.size(), static_cast<size_t>(shards));
    EXPECT_EQ(stats.Total().CountersJson(), SearchStats{}.CountersJson())
        << "shards=" << shards;
  }
}

TEST(ShardStats, MergeIsSlotWise) {
  ShardedSearchStats a, b;
  a.Reset(2);
  b.Reset(2);
  a.per_shard[0].references = 3;
  a.per_shard[1].verifications = 5;
  b.per_shard[0].references = 4;
  b.per_shard[1].verifications = 7;
  a.Merge(b);
  EXPECT_EQ(a.per_shard[0].references, 7u);
  EXPECT_EQ(a.per_shard[1].verifications, 12u);
  EXPECT_EQ(a.Total().references, 7u);
  EXPECT_EQ(a.Total().verifications, 12u);

  // Merging into an empty instance adopts the other's shape.
  ShardedSearchStats c;
  c.Merge(a);
  ASSERT_EQ(c.per_shard.size(), 2u);
  EXPECT_EQ(c.per_shard[0].references, 7u);
}

}  // namespace
}  // namespace silkmoth
