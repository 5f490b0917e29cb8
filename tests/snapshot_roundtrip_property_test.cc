// Round-trip differential properties for the snapshot subsystem, on
// randomized corpora × {similarity, containment, edit} × shard counts:
//
//  1. Save→Load reproduces the token dictionary, the tokenized collection,
//     and every shard's CSR arrays (offsets_ / postings_) exactly — and the
//     snapshot builder's shards are identical to the engine's shards for
//     the same shard count (same ComputeShardRanges partition, same CSR).
//  2. Discovery driven from a snapshot-loaded state (DiscoverShardSelf per
//     shard + MergeShardResults) is byte-identical — ids and exact scores —
//     to a fresh in-memory SilkMoth::DiscoverSelf, with matching
//     per-shard funnel counters.
//  3. The shard-result file format round-trips pairs (exact doubles) and
//     funnel counters.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "snapshot/shard_runner.h"
#include "snapshot/snapshot.h"
#include "text/similarity.h"

namespace silkmoth {
namespace {

struct WorkloadConfig {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
};

const WorkloadConfig kWorkloads[] = {
    {"similarity-jaccard", Relatedness::kSimilarity, SimilarityKind::kJaccard,
     0.6, 0.0},
    {"containment-jaccard", Relatedness::kContainment,
     SimilarityKind::kJaccard, 0.7, 0.0},
    {"similarity-eds", Relatedness::kSimilarity, SimilarityKind::kEds, 0.5,
     0.6},
};

Options MakeOptions(const WorkloadConfig& cfg, int num_shards) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  opt.num_shards = num_shards;
  opt.num_threads = 2;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const WorkloadConfig& cfg, size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 50;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg, 1);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/silkmoth_roundtrip_" + name;
}

void ExpectSameIndex(const InvertedIndex& a, const InvertedIndex& b,
                     const std::string& what) {
  ASSERT_EQ(a.RawOffsets().size(), b.RawOffsets().size()) << what;
  ASSERT_EQ(a.RawPostings().size(), b.RawPostings().size()) << what;
  EXPECT_TRUE(std::equal(a.RawOffsets().begin(), a.RawOffsets().end(),
                         b.RawOffsets().begin()))
      << what << ": offsets differ";
  EXPECT_TRUE(std::equal(a.RawPostings().begin(), a.RawPostings().end(),
                         b.RawPostings().begin()))
      << what << ": postings differ";
}

void ExpectSameCounters(const SearchStats& a, const SearchStats& b,
                        const std::string& what) {
  for (const CounterField& f : kSearchCounters) {
    EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.name;
  }
}

// Core sweep: every workload × corpus seed × shard count, covering
// shards == 1, several mid splits, and shards > sets.
TEST(SnapshotRoundtrip, SaveLoadAndDiscoveryParity) {
  const size_t kSets = 36;
  const int kShardCounts[] = {1, 2, 3, 5, 64};
  for (const WorkloadConfig& cfg : kWorkloads) {
    for (uint64_t seed : {7u, 2026u}) {
      Collection data = MakeData(cfg, kSets, seed);
      for (int shards : kShardCounts) {
        SCOPED_TRACE(std::string(cfg.name) + " seed=" +
                     std::to_string(seed) + " shards=" +
                     std::to_string(shards));
        const Options opt = MakeOptions(cfg, shards);
        const TokenizerKind tk = IsEditSimilarity(cfg.phi)
                                     ? TokenizerKind::kQGram
                                     : TokenizerKind::kWord;
        const int q = tk == TokenizerKind::kQGram ? opt.EffectiveQ() : 0;

        // Reference: the fresh in-memory engine at the same shard count.
        SilkMoth engine(&data, opt);
        ASSERT_TRUE(engine.ok()) << engine.error();
        ShardedSearchStats mem_stats;
        const std::vector<PairMatch> expected =
            engine.DiscoverSelf(&mem_stats);

        // Snapshot build → save → load.
        Snapshot built = BuildSnapshot(data, tk, q,
                                       static_cast<uint32_t>(shards),
                                       opt.num_threads);
        ASSERT_EQ(built.num_shards(), static_cast<size_t>(shards));
        for (int s = 0; s < shards; ++s) {
          EXPECT_EQ(built.shards[s].range.begin,
                    engine.shard_range(s).begin);
          EXPECT_EQ(built.shards[s].range.end, engine.shard_range(s).end);
          ExpectSameIndex(built.shards[s].index, engine.shard_index(s),
                          "built shard " + std::to_string(s));
        }

        const std::string path = TempPath(std::string(cfg.name) + "_" +
                                          std::to_string(seed) + "_" +
                                          std::to_string(shards) + ".snap");
        ASSERT_EQ(SaveSnapshot(built, path), "");
        Snapshot loaded;
        ASSERT_EQ(LoadSnapshot(path, &loaded), "");
        std::remove(path.c_str());

        // Property 1: exact structural round-trip.
        EXPECT_EQ(loaded.tokenizer, tk);
        EXPECT_EQ(loaded.q, q);
        ASSERT_NE(loaded.data.dict, nullptr);
        ASSERT_EQ(loaded.data.dict->size(), data.dict->size());
        for (TokenId t = 0; t < data.dict->size(); ++t) {
          ASSERT_EQ(loaded.data.dict->Token(t), data.dict->Token(t));
        }
        ASSERT_EQ(loaded.data.sets.size(), data.sets.size());
        for (size_t i = 0; i < data.sets.size(); ++i) {
          ASSERT_EQ(loaded.data.sets[i].elements, data.sets[i].elements)
              << "set " << i;
        }
        ASSERT_EQ(loaded.num_shards(), static_cast<size_t>(shards));
        for (int s = 0; s < shards; ++s) {
          EXPECT_EQ(loaded.shards[s].range.begin,
                    engine.shard_range(s).begin);
          EXPECT_EQ(loaded.shards[s].range.end, engine.shard_range(s).end);
          ExpectSameIndex(loaded.shards[s].index, engine.shard_index(s),
                          "loaded shard " + std::to_string(s));
        }

        // Property 2: discovery from the loaded snapshot is byte-identical.
        std::vector<ShardResult> results(shards);
        for (int s = 0; s < shards; ++s) {
          results[s].shard = static_cast<uint32_t>(s);
          results[s].num_shards = static_cast<uint32_t>(shards);
          results[s].options = opt;
          results[s].pairs =
              DiscoverShardSelf(loaded, s, opt, &results[s].stats);
        }
        std::vector<PairMatch> merged;
        ShardedSearchStats merged_stats;
        ASSERT_EQ(MergeShardResults(results, &merged, &merged_stats), "");
        EXPECT_EQ(merged, expected);
        ASSERT_EQ(merged_stats.per_shard.size(),
                  mem_stats.per_shard.size());
        for (int s = 0; s < shards; ++s) {
          ExpectSameCounters(merged_stats.per_shard[s],
                             mem_stats.per_shard[s],
                             "shard " + std::to_string(s) + " counters");
        }
      }
    }
  }
}

// Property 3: the shard-result file format round-trips exactly.
TEST(SnapshotRoundtrip, ShardResultFileRoundtrip) {
  const WorkloadConfig& cfg = kWorkloads[0];
  Collection data = MakeData(cfg, 30, 11);
  const Options opt = MakeOptions(cfg, 3);
  Snapshot snap = BuildSnapshot(data, TokenizerKind::kWord, 0, 3, 2);
  for (int s = 0; s < 3; ++s) {
    ShardResult result;
    result.shard = static_cast<uint32_t>(s);
    result.num_shards = 3;
    result.options = opt;
    result.pairs = DiscoverShardSelf(snap, s, opt, &result.stats);
    result.stats.signature_seconds = 0.25;  // Exercise the double fields.
    result.stats.verify_seconds = 1.0 / 3.0;

    const std::string path =
        TempPath("result_" + std::to_string(s) + ".txt");
    ASSERT_EQ(SaveShardResult(result, path), "");
    ShardResult reloaded;
    ASSERT_EQ(LoadShardResult(path, &reloaded), "");
    std::remove(path.c_str());

    EXPECT_EQ(reloaded.shard, result.shard);
    EXPECT_EQ(reloaded.num_shards, result.num_shards);
    EXPECT_EQ(reloaded.options.metric, result.options.metric);
    EXPECT_EQ(reloaded.options.phi, result.options.phi);
    EXPECT_EQ(reloaded.options.delta, result.options.delta);
    EXPECT_EQ(reloaded.options.alpha, result.options.alpha);
    EXPECT_EQ(reloaded.options.q, result.options.EffectiveQ());
    EXPECT_EQ(reloaded.options.exact_scores, result.options.exact_scores);
    EXPECT_EQ(reloaded.pairs, result.pairs);  // Exact doubles via %.17g.
    ExpectSameCounters(reloaded.stats, result.stats, "reloaded counters");
    EXPECT_EQ(reloaded.stats.signature_seconds,
              result.stats.signature_seconds);
    EXPECT_EQ(reloaded.stats.verify_seconds, result.stats.verify_seconds);
  }
}

// Split containers: the split save → per-shard load path produces the very
// same discovery stream as monolithic and in-memory, and a shard-local load
// provably touches only common + its own shard (byte accounting).
TEST(SnapshotRoundtrip, SplitFilesParityAndByteAccounting) {
  const WorkloadConfig& cfg = kWorkloads[0];
  Collection data = MakeData(cfg, 40, 13);
  const int kShards = 4;
  const Options opt = MakeOptions(cfg, kShards);

  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  const std::vector<PairMatch> expected = engine.DiscoverSelf();

  Snapshot built = BuildSnapshot(data, TokenizerKind::kWord, 0, kShards, 2);
  const std::string mono_path = TempPath("split_mono.snap");
  const std::string split_path = TempPath("split_common.snap");
  ASSERT_EQ(SaveSnapshot(built, mono_path), "");
  ASSERT_EQ(SaveSnapshotSplit(built, split_path), "");

  auto file_size = [](const std::string& p) -> uint64_t {
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    EXPECT_TRUE(in.good()) << p;
    return static_cast<uint64_t>(in.tellg());
  };
  const uint64_t common_bytes = file_size(split_path);
  uint64_t all_bytes = common_bytes;
  for (int s = 0; s < kShards; ++s) {
    all_bytes += file_size(SnapshotShardPath(split_path, s));
  }

  // Full load of the split container: structural parity with monolithic.
  Snapshot mono, split;
  SnapshotLoadStats full_stats;
  ASSERT_EQ(LoadSnapshot(mono_path, &mono), "");
  ASSERT_EQ(LoadSnapshot(split_path, &split, SnapshotLoadMode::kMmap,
                         &full_stats), "");
  EXPECT_EQ(full_stats.files, static_cast<uint64_t>(kShards) + 1);
  EXPECT_EQ(full_stats.BytesTouched(), all_bytes);
  ASSERT_EQ(split.num_shards(), mono.num_shards());
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(split.shards[s].range.begin, mono.shards[s].range.begin);
    EXPECT_EQ(split.shards[s].range.end, mono.shards[s].range.end);
    ExpectSameIndex(split.shards[s].index, mono.shards[s].index,
                    "split shard " + std::to_string(s));
  }

  // Shard-local loads: each worker maps exactly common + its shard, and the
  // merged discovery output is byte-identical to the in-memory engine.
  std::vector<ShardResult> results(kShards);
  for (int s = 0; s < kShards; ++s) {
    Snapshot local;
    SnapshotLoadStats stats;
    ASSERT_EQ(LoadSnapshotShard(split_path, static_cast<uint32_t>(s), &local,
                                SnapshotLoadMode::kMmap, &stats), "");
    EXPECT_EQ(stats.files, 2u) << "shard " << s;
    EXPECT_EQ(stats.BytesTouched(),
              common_bytes +
                  file_size(SnapshotShardPath(split_path,
                                              static_cast<uint32_t>(s))))
        << "shard " << s;
    EXPECT_LT(stats.BytesTouched(), all_bytes) << "shard " << s;
    for (int other = 0; other < kShards; ++other) {
      EXPECT_EQ(local.shards[other].loaded, other == s);
    }
    results[s].shard = static_cast<uint32_t>(s);
    results[s].num_shards = kShards;
    results[s].options = opt;
    results[s].pairs = DiscoverShardSelf(local, s, opt, &results[s].stats);
  }
  std::vector<PairMatch> merged;
  ASSERT_EQ(MergeShardResults(results, &merged, nullptr), "");
  EXPECT_EQ(merged, expected);

  std::remove(mono_path.c_str());
  std::remove(split_path.c_str());
  for (int s = 0; s < kShards; ++s) {
    std::remove(SnapshotShardPath(split_path, s).c_str());
  }
}

// The two load modes are semantically interchangeable: same structures,
// same discovery output — kCopy just owns its bytes.
TEST(SnapshotRoundtrip, MmapAndCopyLoadsAgree) {
  const WorkloadConfig& cfg = kWorkloads[0];
  Collection data = MakeData(cfg, 30, 17);
  const Options opt = MakeOptions(cfg, 3);
  Snapshot built = BuildSnapshot(data, TokenizerKind::kWord, 0, 3, 2);
  const std::string path = TempPath("modes.snap");
  ASSERT_EQ(SaveSnapshot(built, path), "");

  Snapshot via_mmap, via_copy;
  SnapshotLoadStats mmap_stats, copy_stats;
  ASSERT_EQ(LoadSnapshot(path, &via_mmap, SnapshotLoadMode::kMmap,
                         &mmap_stats), "");
  ASSERT_EQ(LoadSnapshot(path, &via_copy, SnapshotLoadMode::kCopy,
                         &copy_stats), "");
  std::remove(path.c_str());

  // The mmap path keeps the region and copies nothing; the copy path owns
  // everything and keeps no region.
  EXPECT_GT(mmap_stats.bytes_mapped, 0u);
  EXPECT_FALSE(via_mmap.regions.empty());
  EXPECT_EQ(copy_stats.bytes_mapped, 0u);
  EXPECT_TRUE(via_copy.regions.empty());

  ASSERT_EQ(via_mmap.data.sets.size(), via_copy.data.sets.size());
  for (size_t i = 0; i < via_mmap.data.sets.size(); ++i) {
    EXPECT_EQ(via_mmap.data.sets[i].elements, via_copy.data.sets[i].elements);
  }
  ASSERT_EQ(via_mmap.num_shards(), via_copy.num_shards());
  for (size_t s = 0; s < via_mmap.num_shards(); ++s) {
    ExpectSameIndex(via_mmap.shards[s].index, via_copy.shards[s].index,
                    "mode shard " + std::to_string(s));
    const std::vector<PairMatch> a = DiscoverShardSelf(via_mmap, s, opt);
    const std::vector<PairMatch> b = DiscoverShardSelf(via_copy, s, opt);
    EXPECT_EQ(a, b) << "shard " << s;
  }
}

// Degenerate corpora: empty collection and single-set collection survive the
// full save → load → discover cycle at any shard count.
TEST(SnapshotRoundtrip, DegenerateCorpora) {
  for (size_t sets : {size_t{0}, size_t{1}}) {
    RawSets raw(sets, std::vector<std::string>{"alpha beta gamma"});
    Collection data = BuildCollection(raw, TokenizerKind::kWord);
    for (int shards : {1, 4}) {
      SCOPED_TRACE("sets=" + std::to_string(sets) + " shards=" +
                   std::to_string(shards));
      Snapshot snap = BuildSnapshot(data, TokenizerKind::kWord, 0,
                                    static_cast<uint32_t>(shards), 1);
      const std::string path = TempPath(
          "degenerate_" + std::to_string(sets) + std::to_string(shards));
      ASSERT_EQ(SaveSnapshot(snap, path), "");
      Snapshot loaded;
      ASSERT_EQ(LoadSnapshot(path, &loaded), "");
      std::remove(path.c_str());
      EXPECT_EQ(loaded.data.sets.size(), sets);
      EXPECT_EQ(loaded.num_shards(), static_cast<size_t>(shards));

      const Options opt = MakeOptions(kWorkloads[0], shards);
      std::vector<ShardResult> results(shards);
      for (int s = 0; s < shards; ++s) {
        results[s].shard = static_cast<uint32_t>(s);
        results[s].num_shards = static_cast<uint32_t>(shards);
        results[s].pairs = DiscoverShardSelf(loaded, s, opt, nullptr);
        EXPECT_TRUE(results[s].pairs.empty());
      }
      std::vector<PairMatch> merged;
      ASSERT_EQ(MergeShardResults(results, &merged, nullptr), "");
      EXPECT_TRUE(merged.empty());
    }
  }
}

}  // namespace
}  // namespace silkmoth
