// Differential properties of the dynamic-corpus subsystem (delta shard +
// compaction), on randomized corpora split into (base, ingest batches) ×
// {similarity, containment, edit} × shard counts × {exact, approx} scores:
//
//  1. Discovery over (base shards + delta view) is byte-identical — ids and
//     bitwise scores — to discovery over the snapshot CompactSnapshot
//     produces from the same state, loaded back through the mmap path. This
//     is the governing contract of docs/ARCHITECTURE.md, "Dynamic corpora".
//  2. The delta shard behaves exactly like a real shard of the same range:
//     against a control built with BuildShardIndexes over the combined
//     collection using (base ranges + delta range), every per-shard funnel
//     counter matches slot for slot.
//  3. OOV accounting: the delta's oov_tokens() is exactly the dictionary
//     growth past the base, and the compacted snapshot's dictionary is the
//     live combined dictionary token for token (base-then-delta interning
//     order equals a from-scratch build's first-seen order).
//  4. Query mode sees base + delta transparently: an external query block
//     discovers the same pairs over (base + delta) as over the compacted
//     snapshot, with identical query_sets/oov_tokens stamps.
//  5. WithIngested (the serve daemon's copy-on-ingest path) produces the
//     same state as in-place Ingest, and leaves the original untouched.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference_block.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "snapshot/compactor.h"
#include "snapshot/delta_shard.h"
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

Options MakeOptions(const WorkloadConfig& cfg, int num_shards,
                    bool exact_scores) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  opt.num_shards = num_shards;
  opt.num_threads = 2;
  opt.exact_scores = exact_scores;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

RawSets MakeRaw(size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = seed;
  return GenerateDblpSets(p);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/silkmoth_delta_parity_" + name;
}

void ExpectSameCounters(const SearchStats& a, const SearchStats& b,
                        const std::string& what) {
  for (const CounterField& f : kSearchCounters) {
    EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.name;
  }
}

// One live (base + delta) state, assembled the way every consumer does it:
// a built base snapshot, a DeltaShard over its collection fed in batches.
struct LiveState {
  Snapshot base;
  std::unique_ptr<DeltaShard> delta;
  std::vector<ShardView> views;  // Base shards + delta view.
  TokenizerKind tk = TokenizerKind::kWord;
  int q = 0;
  size_t base_dict_size = 0;  // Dictionary size before any ingest.
};

LiveState MakeLive(const WorkloadConfig& cfg, const Options& opt,
                   const RawSets& base_raw,
                   const std::vector<RawSets>& batches, int shards) {
  LiveState st;
  st.tk = IsEditSimilarity(cfg.phi) ? TokenizerKind::kQGram
                                    : TokenizerKind::kWord;
  st.q = st.tk == TokenizerKind::kQGram ? opt.EffectiveQ() : 0;
  Collection base_data = BuildCollection(base_raw, st.tk, st.q);
  st.base = BuildSnapshot(base_data, st.tk, st.q,
                          static_cast<uint32_t>(shards), opt.num_threads);
  st.base_dict_size = st.base.data.dict->size();
  st.delta =
      std::make_unique<DeltaShard>(&st.base.data, st.base.tokenizer, st.q);
  for (const RawSets& batch : batches) {
    EXPECT_EQ(st.delta->Ingest(batch), "");
  }
  for (size_t s = 0; s < st.base.num_shards(); ++s) {
    st.views.push_back(
        ShardView{st.base.shards[s].range, &st.base.shards[s].index});
  }
  if (st.delta->delta_sets() > 0) st.views.push_back(st.delta->View());
  return st;
}

// The full differential sweep behind properties 1-3.
TEST(DeltaParity, LiveEqualsCompactedAcrossTheSweep) {
  const size_t kSets = 36;
  const size_t kBaseSets = 24;
  const int kShardCounts[] = {1, 2, 5};
  for (const WorkloadConfig& cfg : kWorkloads) {
    for (uint64_t seed : {7u, 2026u}) {
      const RawSets all = MakeRaw(kSets, seed);
      const RawSets base_raw(all.begin(), all.begin() + kBaseSets);
      // Two uneven batches so multi-batch ingest (index rebuilt each time)
      // is what the sweep actually exercises.
      const std::vector<RawSets> batches = {
          RawSets(all.begin() + kBaseSets, all.begin() + kBaseSets + 5),
          RawSets(all.begin() + kBaseSets + 5, all.end())};
      for (int shards : kShardCounts) {
        for (bool exact : {true, false}) {
          SCOPED_TRACE(std::string(cfg.name) + " seed=" +
                       std::to_string(seed) + " shards=" +
                       std::to_string(shards) +
                       (exact ? " exact" : " approx"));
          const Options opt = MakeOptions(cfg, shards, exact);
          LiveState live = MakeLive(cfg, opt, base_raw, batches, shards);
          const Collection& combined = live.delta->combined();
          ASSERT_EQ(combined.sets.size(), kSets);

          // Property 3 (OOV accounting): dict growth is exactly what the
          // delta reports, and it only ever appends past the base.
          ASSERT_EQ(combined.dict.get(), live.base.data.dict.get());
          EXPECT_EQ(live.delta->oov_tokens(),
                    combined.dict->size() - live.base_dict_size);

          const ReferenceBlock block = ReferenceBlock::SelfJoin(combined);
          ShardedSearchStats live_stats;
          live_stats.Reset(live.views.size());
          const std::vector<PairMatch> live_pairs = DiscoverAcrossShards(
              block, combined, live.views, opt, &live_stats);

          // Property 2 (the delta is just a shard): a control with real
          // BuildShardIndexes over the combined collection, using the same
          // ranges, must match every funnel counter slot for slot.
          std::vector<SetIdRange> ranges;
          for (const ShardView& v : live.views) ranges.push_back(v.range);
          const std::vector<InvertedIndex> control_indexes =
              BuildShardIndexes(combined, ranges, opt.num_threads);
          std::vector<ShardView> control_views;
          for (size_t s = 0; s < ranges.size(); ++s) {
            control_views.push_back(
                ShardView{ranges[s], &control_indexes[s]});
          }
          ShardedSearchStats control_stats;
          control_stats.Reset(control_views.size());
          const std::vector<PairMatch> control_pairs = DiscoverAcrossShards(
              block, combined, control_views, opt, &control_stats);
          EXPECT_EQ(live_pairs, control_pairs);
          ASSERT_EQ(live_stats.per_shard.size(),
                    control_stats.per_shard.size());
          for (size_t s = 0; s < live_stats.per_shard.size(); ++s) {
            ExpectSameCounters(live_stats.per_shard[s],
                               control_stats.per_shard[s],
                               "shard " + std::to_string(s));
          }

          // Property 1 (the governing contract): compact, reload through
          // the mmap path, rediscover — byte-identical pair stream.
          const std::string path =
              TempPath(std::string(cfg.name) + "_" + std::to_string(seed) +
                       "_" + std::to_string(shards) +
                       (exact ? "_exact" : "_approx") + ".snap");
          CompactResult cres;
          CompactOptions copt;
          copt.num_shards = static_cast<uint32_t>(shards);
          copt.num_threads = opt.num_threads;
          ASSERT_EQ(CompactSnapshot(live.base, *live.delta, path, copt,
                                    &cres),
                    "");
          EXPECT_EQ(cres.generation, 2u);
          EXPECT_EQ(cres.total_sets, kSets);
          EXPECT_EQ(cres.delta_sets, kSets - kBaseSets);
          Snapshot compacted;
          ASSERT_EQ(LoadSnapshot(path, &compacted), "");
          std::remove(path.c_str());
          EXPECT_EQ(compacted.generation, 2u);

          // Property 3 again, on the persisted side: the compacted
          // dictionary is the live combined dictionary token for token.
          ASSERT_NE(compacted.data.dict, nullptr);
          ASSERT_EQ(compacted.data.dict->size(), combined.dict->size());
          for (TokenId t = 0; t < combined.dict->size(); ++t) {
            ASSERT_EQ(compacted.data.dict->Token(t),
                      combined.dict->Token(t));
          }

          std::vector<ShardView> compacted_views;
          for (size_t s = 0; s < compacted.num_shards(); ++s) {
            compacted_views.push_back(ShardView{
                compacted.shards[s].range, &compacted.shards[s].index});
          }
          const ReferenceBlock cblock =
              ReferenceBlock::SelfJoin(compacted.data);
          ShardedSearchStats cstats;
          cstats.Reset(compacted_views.size());
          const std::vector<PairMatch> compacted_pairs =
              DiscoverAcrossShards(cblock, compacted.data, compacted_views,
                                   opt, &cstats);
          EXPECT_EQ(live_pairs, compacted_pairs);
        }
      }
    }
  }
}

// Property 4: an external query block discovers identically over
// (base + delta) and over the compacted snapshot, OOV stamps included.
TEST(DeltaParity, QueryModeSeesBasePlusDelta) {
  const WorkloadConfig cfg = kWorkloads[1];  // containment-jaccard
  const RawSets all = MakeRaw(30, 11u);
  const RawSets base_raw(all.begin(), all.begin() + 20);
  const std::vector<RawSets> batches = {RawSets(all.begin() + 20, all.end())};
  // Queries overlap the corpus and add never-seen text for a nonzero OOV
  // stamp.
  RawSets query_raw(all.begin() + 18, all.begin() + 23);
  query_raw.push_back({"zzz unseen probe tokens", "qqq more unseen"});

  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Options opt = MakeOptions(cfg, shards, true);
    LiveState live = MakeLive(cfg, opt, base_raw, batches, shards);

    // Compact *before* tokenizing the live query: BuildQueryBlock interns
    // the query's OOV tokens into the shared dictionary, and a compaction
    // taken afterwards would carry them — exactly the ordering the CLI
    // enforces (delta replay, then query tokenization; compaction is a
    // separate process that never sees query interning).
    const std::string path = TempPath("query_" + std::to_string(shards) +
                                      ".snap");
    CompactOptions copt;
    copt.num_shards = static_cast<uint32_t>(shards);
    ASSERT_EQ(CompactSnapshot(live.base, *live.delta, path, copt), "");
    Snapshot compacted;
    ASSERT_EQ(LoadSnapshot(path, &compacted), "");
    std::remove(path.c_str());

    Collection live_query;
    ReferenceBlock live_block =
        BuildQueryBlock(query_raw, live.tk, live.q, live.delta->combined(),
                        &live_query);
    ShardedSearchStats live_stats;
    live_stats.Reset(live.views.size());
    const std::vector<PairMatch> live_pairs =
        DiscoverAcrossShards(live_block, live.delta->combined(), live.views,
                             opt, &live_stats);

    Collection cquery;
    ReferenceBlock cblock = BuildQueryBlock(query_raw, live.tk, live.q,
                                            compacted.data, &cquery);
    EXPECT_EQ(live_block.oov_tokens, cblock.oov_tokens);
    EXPECT_GT(cblock.oov_tokens, 0u);
    EXPECT_EQ(live_block.content_hash, cblock.content_hash);
    std::vector<ShardView> cviews;
    for (size_t s = 0; s < compacted.num_shards(); ++s) {
      cviews.push_back(ShardView{compacted.shards[s].range,
                                 &compacted.shards[s].index});
    }
    ShardedSearchStats cstats;
    cstats.Reset(cviews.size());
    const std::vector<PairMatch> compacted_pairs =
        DiscoverAcrossShards(cblock, compacted.data, cviews, opt, &cstats);
    EXPECT_EQ(live_pairs, compacted_pairs);
    EXPECT_EQ(live_stats.Total().results, cstats.Total().results);
  }
}

// Property 5: WithIngested == Ingest, and the original shard is untouched
// (the serve daemon's epoch contract).
TEST(DeltaParity, WithIngestedMatchesInPlaceIngest) {
  const WorkloadConfig cfg = kWorkloads[0];
  const RawSets all = MakeRaw(24, 3u);
  const RawSets base_raw(all.begin(), all.begin() + 16);
  const RawSets batch1(all.begin() + 16, all.begin() + 20);
  const RawSets batch2(all.begin() + 20, all.end());
  const Options opt = MakeOptions(cfg, 2, true);

  // Two independently built bases: DeltaShards share their base's
  // dictionary, so comparing two deltas' OOV accounting needs each to own
  // a dictionary instance (build determinism makes them token-identical).
  Collection base_data_a = BuildCollection(base_raw, TokenizerKind::kWord);
  Snapshot base = BuildSnapshot(base_data_a, TokenizerKind::kWord, 0, 2, 1);
  Collection base_data_b = BuildCollection(base_raw, TokenizerKind::kWord);
  Snapshot base_b =
      BuildSnapshot(base_data_b, TokenizerKind::kWord, 0, 2, 1);

  DeltaShard inplace(&base.data, base.tokenizer, 0);
  ASSERT_EQ(inplace.Ingest(batch1), "");
  ASSERT_EQ(inplace.Ingest(batch2), "");

  DeltaShard seed(&base_b.data, base_b.tokenizer, 0);
  ASSERT_EQ(seed.Ingest(batch1), "");
  const size_t seed_sets = seed.delta_sets();
  const size_t seed_oov = seed.oov_tokens();
  std::string err;
  std::shared_ptr<DeltaShard> grown = seed.WithIngested(batch2, &err);
  ASSERT_NE(grown, nullptr) << err;

  // Original untouched: same sets, same counters, view still valid.
  EXPECT_EQ(seed.delta_sets(), seed_sets);
  EXPECT_EQ(seed.oov_tokens(), seed_oov);
  EXPECT_EQ(seed.View().range.end - seed.View().range.begin, seed_sets);

  // Grown clone == in-place double ingest, by full discovery output.
  EXPECT_EQ(grown->delta_sets(), inplace.delta_sets());
  EXPECT_EQ(grown->oov_tokens(), inplace.oov_tokens());
  std::vector<ShardView> a_views, b_views;
  for (size_t s = 0; s < base.num_shards(); ++s) {
    a_views.push_back(ShardView{base.shards[s].range,
                                &base.shards[s].index});
    b_views.push_back(ShardView{base_b.shards[s].range,
                                &base_b.shards[s].index});
  }
  a_views.push_back(inplace.View());
  b_views.push_back(grown->View());
  const ReferenceBlock a_block = ReferenceBlock::SelfJoin(inplace.combined());
  const ReferenceBlock b_block = ReferenceBlock::SelfJoin(grown->combined());
  ShardedSearchStats sa, sb;
  sa.Reset(a_views.size());
  sb.Reset(b_views.size());
  EXPECT_EQ(DiscoverAcrossShards(a_block, inplace.combined(), a_views, opt,
                                 &sa),
            DiscoverAcrossShards(b_block, grown->combined(), b_views, opt,
                                 &sb));
}

// Compacting an *empty* delta is legal and yields a re-partitioned
// generation 2 of the same sets.
TEST(DeltaParity, EmptyDeltaCompactsToSameSets) {
  const RawSets base_raw = MakeRaw(12, 5u);
  Collection base_data = BuildCollection(base_raw, TokenizerKind::kWord);
  Snapshot base = BuildSnapshot(base_data, TokenizerKind::kWord, 0, 3, 1);
  DeltaShard delta(&base.data, base.tokenizer, 0);

  const std::string path = TempPath("empty_delta.snap");
  CompactResult cres;
  CompactOptions copt;
  copt.num_shards = 2;
  ASSERT_EQ(CompactSnapshot(base, delta, path, copt, &cres), "");
  EXPECT_EQ(cres.delta_sets, 0u);
  Snapshot next;
  ASSERT_EQ(LoadSnapshot(path, &next), "");
  std::remove(path.c_str());
  EXPECT_EQ(next.generation, 2u);
  EXPECT_EQ(next.num_shards(), 2u);
  ASSERT_EQ(next.data.sets.size(), base.data.sets.size());
  for (size_t i = 0; i < base.data.sets.size(); ++i) {
    ASSERT_EQ(next.data.sets[i].elements, base.data.sets[i].elements);
  }
}

}  // namespace
}  // namespace silkmoth
