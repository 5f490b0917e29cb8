// Query-vs-corpus discovery: the ReferenceBlock abstraction and everything
// threaded through it.
//
//  - Self-join parity: the full-collection self-join block is byte-identical
//    to DiscoverSelf at one and at several shards, and
//    disjoint self-join sub-range blocks union to the full self-join.
//  - External-query oracle: snapshot round-trip + DiscoverShardAgainst per
//    shard, concatenated, equals SilkMoth::Discover at one and at several
//    shards, and the brute-force oracle — across similarity/containment/edit.
//  - OOV edge cases: all-OOV queries, empty payloads, oov counting.
//  - Protocol: query fields round-trip through shard-result files; merge
//    refuses mixed self/query streams and mismatched query fingerprints.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "snapshot/shard_runner.h"
#include "snapshot/snapshot.h"

namespace silkmoth {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/silkmoth_query_" + name;
}

RawSets SchemaRaw(size_t num_sets, uint64_t seed) {
  WebTableParams p = SchemaMatchingDefaults(num_sets, seed);
  p.min_elements = 1;
  p.max_elements = 4;
  p.min_tokens = 2;
  p.max_tokens = 5;
  p.num_domains = 5;
  p.domain_values = 30;
  return GenerateSchemaSets(p);
}

RawSets DblpRaw(size_t num_titles, uint64_t seed) {
  DblpParams p;
  p.num_titles = num_titles;
  p.vocabulary = 60;
  p.min_words = 1;
  p.max_words = 3;
  p.duplicate_rate = 0.4;
  p.typo_rate = 0.3;
  p.seed = seed;
  return GenerateDblpSets(p);
}

// --- Self-join parity ------------------------------------------------------

TEST(ReferenceBlockSelfJoin, FullBlockIdenticalToDiscoverSelf) {
  Collection data = BuildCollection(SchemaRaw(40, 71), TokenizerKind::kWord);
  for (Relatedness metric :
       {Relatedness::kSimilarity, Relatedness::kContainment}) {
    Options o;
    o.metric = metric;
    o.delta = 0.6;
    SilkMoth engine(&data, o);
    ASSERT_TRUE(engine.ok()) << engine.error();
    EXPECT_EQ(engine.Discover(ReferenceBlock::SelfJoin(data)),
              engine.DiscoverSelf());

    o.num_shards = 3;
    o.num_threads = 2;
    SilkMoth sharded(&data, o);
    ASSERT_TRUE(sharded.ok()) << sharded.error();
    EXPECT_EQ(sharded.Discover(ReferenceBlock::SelfJoin(data)),
              sharded.DiscoverSelf());
    EXPECT_EQ(sharded.DiscoverSelf(), engine.DiscoverSelf());
  }
}

TEST(ReferenceBlockSelfJoin, DisjointSubRangesUnionToFullSelfJoin) {
  Collection data = BuildCollection(SchemaRaw(37, 72), TokenizerKind::kWord);
  for (Relatedness metric :
       {Relatedness::kSimilarity, Relatedness::kContainment}) {
    Options o;
    o.metric = metric;
    o.delta = 0.6;
    o.num_shards = 2;
    SilkMoth engine(&data, o);
    ASSERT_TRUE(engine.ok()) << engine.error();
    const std::vector<PairMatch> whole = engine.DiscoverSelf();

    // Exclusion and dedup are per-reference decisions, so chopping the
    // reference stream anywhere and concatenating preserves the output —
    // the property that lets reference blocks distribute a self-join.
    const uint32_t n = static_cast<uint32_t>(data.NumSets());
    for (uint32_t cut : {uint32_t{0}, uint32_t{1}, n / 3, n - 1, n}) {
      std::vector<PairMatch> joined =
          engine.Discover(ReferenceBlock::SelfJoinRange(data, 0, cut));
      const std::vector<PairMatch> tail =
          engine.Discover(ReferenceBlock::SelfJoinRange(data, cut, n));
      joined.insert(joined.end(), tail.begin(), tail.end());
      EXPECT_EQ(joined, whole) << "cut at " << cut;
    }
  }
}

TEST(ReferenceBlockSelfJoin, SelfJoinStampsNoQueryCounters) {
  Collection data = BuildCollection(SchemaRaw(20, 73), TokenizerKind::kWord);
  Options o;
  o.delta = 0.6;
  SilkMoth engine(&data, o);
  ShardedSearchStats stats;
  engine.DiscoverSelf(&stats);
  EXPECT_EQ(stats.Total().query_sets, 0u);
  EXPECT_EQ(stats.Total().oov_tokens, 0u);
}

// --- External query: oracle identity across metrics and execution modes ---

struct QueryCase {
  SimilarityKind phi;
  Relatedness metric;
  double delta;
  double alpha;

  std::string Name() const {
    std::string n = SimilarityKindName(phi);
    n += metric == Relatedness::kSimilarity ? "_Sim" : "_Contain";
    n += "_d" + std::to_string(static_cast<int>(delta * 100));
    n += "_a" + std::to_string(static_cast<int>(alpha * 100));
    return n;
  }
};

class QueryModeSweep : public ::testing::TestWithParam<QueryCase> {};

TEST_P(QueryModeSweep, SnapshotQueryMatchesOracleEverywhere) {
  const QueryCase& c = GetParam();
  Options o;
  o.phi = c.phi;
  o.metric = c.metric;
  o.delta = c.delta;
  o.alpha = c.alpha;
  ASSERT_EQ(o.Validate(), "");
  const bool qgrams = IsEditSimilarity(c.phi);
  const TokenizerKind tk = qgrams ? TokenizerKind::kQGram
                                  : TokenizerKind::kWord;
  const int q = qgrams ? o.EffectiveQ() : 0;

  const RawSets corpus_raw = qgrams ? DblpRaw(30, 81) : SchemaRaw(30, 81);
  const RawSets query_raw = qgrams ? DblpRaw(12, 82) : SchemaRaw(12, 82);

  // Snapshot round-trip (the serve-traffic path): build, save, reload
  // zero-copy, tokenize the query against the *loaded* dictionary.
  const uint32_t kShards = 3;
  Snapshot built = BuildSnapshot(BuildCollection(corpus_raw, tk, q), tk, q,
                                 kShards, 2);
  const std::string path = TempPath("sweep_" + GetParam().Name() + ".snap");
  ASSERT_EQ(SaveSnapshot(built, path), "");
  Snapshot snap;
  ASSERT_EQ(LoadSnapshot(path, &snap), "");
  std::remove(path.c_str());

  Collection query;
  const ReferenceBlock block =
      BuildQueryBlock(query_raw, tk, q, snap.data, &query);
  ASSERT_EQ(block.refs, &query);
  ASSERT_FALSE(block.self_join);
  EXPECT_EQ(block.content_hash, HashRawSets(query_raw));

  // Per-shard out-of-process primitive, concatenated: shard ranges are
  // disjoint and ascending, so concatenation is already canonical order.
  std::vector<PairMatch> concatenated;
  SearchStats shard_stats;
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::vector<PairMatch> part =
        DiscoverShardAgainst(snap, s, block, o, &shard_stats);
    concatenated.insert(concatenated.end(), part.begin(), part.end());
  }
  std::sort(concatenated.begin(), concatenated.end(), PairMatchIdLess);

  // In-process engines over the in-memory corpus (same dictionary as the
  // snapshot: interning order is deterministic, so ids agree).
  Collection data = BuildCollection(corpus_raw, tk, q);
  Collection mem_query = BuildCollectionWithDict(query_raw, tk, q, data.dict);
  SilkMoth single(&data, o);
  ASSERT_TRUE(single.ok()) << single.error();
  Options sharded_opt = o;
  sharded_opt.num_shards = kShards;
  sharded_opt.num_threads = 2;
  SilkMoth sharded(&data, sharded_opt);
  ASSERT_TRUE(sharded.ok()) << sharded.error();
  BruteForce oracle(&data, o);

  const std::vector<PairMatch> truth = oracle.Discover(mem_query);
  EXPECT_EQ(single.Discover(mem_query), truth) << c.Name();
  EXPECT_EQ(sharded.Discover(mem_query), truth) << c.Name();
  EXPECT_EQ(concatenated, truth) << c.Name();
}

std::vector<QueryCase> QueryCases() {
  return {
      {SimilarityKind::kJaccard, Relatedness::kSimilarity, 0.6, 0.0},
      {SimilarityKind::kJaccard, Relatedness::kContainment, 0.6, 0.25},
      {SimilarityKind::kEds, Relatedness::kSimilarity, 0.6, 0.75},
      {SimilarityKind::kEds, Relatedness::kContainment, 0.6, 0.7},
      {SimilarityKind::kNeds, Relatedness::kSimilarity, 0.7, 0.0},
      {SimilarityKind::kNeds, Relatedness::kContainment, 0.6, 0.75},
  };
}

INSTANTIATE_TEST_SUITE_P(Configs, QueryModeSweep,
                         ::testing::ValuesIn(QueryCases()),
                         [](const auto& info) { return info.param.Name(); });

// --- OOV edge cases --------------------------------------------------------

TEST(QueryOov, AllOovQueryFindsNothingAndCounts) {
  Collection data = BuildCollection(SchemaRaw(25, 91), TokenizerKind::kWord);
  const size_t dict_before = data.dict->size();
  Options o;
  o.delta = 0.5;
  SilkMoth engine(&data, o);

  // A vocabulary guaranteed disjoint from the generated corpus (generator
  // tokens are lowercase word/domain ids).
  const RawSets oov_raw = {{"ZZZZ-1 ZZZZ-2", "ZZZZ-3"}, {"ZZZZ-4"}};
  Collection query;
  const ReferenceBlock block =
      BuildQueryBlock(oov_raw, TokenizerKind::kWord, 0, data, &query);
  EXPECT_EQ(block.oov_tokens, 4u);
  EXPECT_EQ(data.dict->size(), dict_before + 4);

  ShardedSearchStats stats;
  EXPECT_TRUE(engine.Discover(block, &stats).empty());
  EXPECT_EQ(stats.Total().query_sets, 2u);
  EXPECT_EQ(stats.Total().oov_tokens, 4u);
}

TEST(QueryOov, PartialOovStillMatchesOracle) {
  const RawSets corpus_raw = SchemaRaw(25, 92);
  Collection data = BuildCollection(corpus_raw, TokenizerKind::kWord);
  // Take real corpus sets and pollute each with an OOV element: matches
  // must still be found through the in-vocabulary tokens, and the oracle
  // (which evaluates the polluted query sets directly) must agree.
  RawSets query_raw(corpus_raw.begin(), corpus_raw.begin() + 6);
  for (auto& set_texts : query_raw) set_texts.push_back("QQQQ-oov QQQQ-oov2");

  Options o;
  o.metric = Relatedness::kSimilarity;
  o.delta = 0.5;
  SilkMoth engine(&data, o);
  BruteForce oracle(&data, o);

  Collection query;
  const ReferenceBlock block =
      BuildQueryBlock(query_raw, TokenizerKind::kWord, 0, data, &query);
  EXPECT_EQ(block.oov_tokens, 2u);
  const std::vector<PairMatch> got = engine.Discover(block);
  EXPECT_EQ(got, oracle.Discover(query));
  EXPECT_FALSE(got.empty());
}

TEST(QueryOov, EmptyPayloadYieldsNothing) {
  Collection data = BuildCollection(SchemaRaw(10, 93), TokenizerKind::kWord);
  Options o;
  SilkMoth engine(&data, o);
  Collection query;
  const ReferenceBlock block =
      BuildQueryBlock(RawSets{}, TokenizerKind::kWord, 0, data, &query);
  EXPECT_EQ(block.NumRefs(), 0u);
  EXPECT_EQ(block.oov_tokens, 0u);
  ShardedSearchStats stats;
  EXPECT_TRUE(engine.Discover(block, &stats).empty());
  EXPECT_EQ(stats.Total().query_sets, 0u);
  EXPECT_EQ(stats.Total().references, 0u);
}

TEST(QueryOov, HashDistinguishesPayloads) {
  const RawSets a = {{"x y", "z"}};
  const RawSets b = {{"x y z"}};      // Same bytes, different structure.
  const RawSets c = {{"x y"}, {"z"}}; // Same elements, different sets.
  EXPECT_EQ(HashRawSets(a), HashRawSets(a));
  EXPECT_NE(HashRawSets(a), HashRawSets(b));
  EXPECT_NE(HashRawSets(a), HashRawSets(c));
  EXPECT_NE(HashRawSets(b), HashRawSets(c));
}

// --- Shard-result protocol: query fingerprints -----------------------------

TEST(QueryProtocol, ResultFileRoundTripsQueryFields) {
  ShardResult result;
  result.shard = 1;
  result.num_shards = 2;
  result.query_mode = true;
  result.query_hash = 0xdeadbeefcafef00dull;
  result.stats.query_sets = 7;
  result.stats.oov_tokens = 3;
  result.pairs = {{0, 4, 1.5, 0.75}, {2, 9, 2.0, 0.8}};
  const std::string path = TempPath("query_result.txt");
  ASSERT_EQ(SaveShardResult(result, path), "");
  ShardResult reloaded;
  ASSERT_EQ(LoadShardResult(path, &reloaded), "");
  std::remove(path.c_str());
  EXPECT_TRUE(reloaded.query_mode);
  EXPECT_EQ(reloaded.query_hash, 0xdeadbeefcafef00dull);
  EXPECT_EQ(reloaded.stats.query_sets, 7u);
  EXPECT_EQ(reloaded.stats.oov_tokens, 3u);
  EXPECT_EQ(reloaded.pairs, result.pairs);
}

ShardResult MakeResult(uint32_t shard, uint32_t num_shards, bool query_mode,
                       uint64_t hash) {
  ShardResult r;
  r.shard = shard;
  r.num_shards = num_shards;
  r.query_mode = query_mode;
  r.query_hash = hash;
  return r;
}

TEST(QueryProtocol, MergeRejectsMixedSelfAndQueryStreams) {
  std::vector<ShardResult> results;
  results.push_back(MakeResult(0, 2, /*query_mode=*/false, 0));
  results.push_back(MakeResult(1, 2, /*query_mode=*/true, 0x1234));
  std::vector<PairMatch> pairs;
  const std::string err = MergeShardResults(results, &pairs);
  EXPECT_NE(err.find("reference payload"), std::string::npos) << err;
  EXPECT_NE(err.find("self-join"), std::string::npos) << err;
}

TEST(QueryProtocol, MergeRejectsMismatchedQueryHashes) {
  std::vector<ShardResult> results;
  results.push_back(MakeResult(0, 2, /*query_mode=*/true, 0x1111));
  results.push_back(MakeResult(1, 2, /*query_mode=*/true, 0x2222));
  std::vector<PairMatch> pairs;
  const std::string err = MergeShardResults(results, &pairs);
  EXPECT_NE(err.find("different query payloads"), std::string::npos) << err;
}

TEST(QueryProtocol, MergeAcceptsMatchingQueryStreams) {
  std::vector<ShardResult> results;
  results.push_back(MakeResult(0, 2, /*query_mode=*/true, 0xabcd));
  results.push_back(MakeResult(1, 2, /*query_mode=*/true, 0xabcd));
  results[0].pairs = {{0, 0, 1.0, 1.0}};
  results[1].pairs = {{0, 1, 1.0, 1.0}};
  std::vector<PairMatch> pairs;
  ASSERT_EQ(MergeShardResults(results, &pairs), "");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].set_id, 0u);
  EXPECT_EQ(pairs[1].set_id, 1u);
}

// End-to-end protocol parity: shard-run-against + save + load + merge over a
// real snapshot equals the in-process sharded run, stats included.
TEST(QueryProtocol, SaveLoadMergeMatchesInProcessQueryRun) {
  const RawSets corpus_raw = SchemaRaw(32, 95);
  const RawSets query_raw = SchemaRaw(10, 96);
  Options o;
  o.metric = Relatedness::kContainment;
  o.delta = 0.6;
  const uint32_t kShards = 3;

  Snapshot snap = BuildSnapshot(BuildCollection(corpus_raw,
                                                TokenizerKind::kWord, 0),
                                TokenizerKind::kWord, 0, kShards, 1);
  Collection query;
  const ReferenceBlock block =
      BuildQueryBlock(query_raw, TokenizerKind::kWord, 0, snap.data, &query);

  std::vector<ShardResult> loaded(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    ShardResult result;
    result.shard = s;
    result.num_shards = kShards;
    result.options = o;
    result.query_mode = true;
    result.query_hash = block.content_hash;
    result.pairs = DiscoverShardAgainst(snap, s, block, o, &result.stats);
    const std::string path = TempPath("e2e_" + std::to_string(s) + ".txt");
    ASSERT_EQ(SaveShardResult(result, path), "");
    ASSERT_EQ(LoadShardResult(path, &loaded[s]), "");
    std::remove(path.c_str());
  }
  std::vector<PairMatch> merged;
  ShardedSearchStats merged_stats;
  ASSERT_EQ(MergeShardResults(loaded, &merged, &merged_stats), "");

  Options sharded_opt = o;
  sharded_opt.num_shards = kShards;
  Collection data = BuildCollection(corpus_raw, TokenizerKind::kWord, 0);
  SilkMoth engine(&data, sharded_opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  Collection mem_query;
  const ReferenceBlock mem_block =
      BuildQueryBlock(query_raw, TokenizerKind::kWord, 0, data, &mem_query);
  ShardedSearchStats mem_stats;
  EXPECT_EQ(merged, engine.Discover(mem_block, &mem_stats));
  ASSERT_EQ(merged_stats.per_shard.size(), mem_stats.per_shard.size());
  for (size_t s = 0; s < mem_stats.per_shard.size(); ++s) {
    EXPECT_EQ(merged_stats.per_shard[s].query_sets,
              mem_stats.per_shard[s].query_sets) << "shard " << s;
    EXPECT_EQ(merged_stats.per_shard[s].results,
              mem_stats.per_shard[s].results) << "shard " << s;
    EXPECT_EQ(merged_stats.per_shard[s].verifications,
              mem_stats.per_shard[s].verifications) << "shard " << s;
  }
  // oov_tokens differ by design between the two runs only if tokenization
  // happened twice; both tokenized one payload against one fresh corpus
  // dictionary here, so they agree too.
  EXPECT_EQ(merged_stats.Total().oov_tokens, mem_stats.Total().oov_tokens);
}

// DiscoverShardAgainst refuses self-join blocks: the query entry point
// must never silently apply exclusion/dedup semantics.
TEST(QueryProtocol, DiscoverShardAgainstRefusesSelfJoinBlocks) {
  Snapshot snap = BuildSnapshot(BuildCollection(SchemaRaw(10, 97),
                                                TokenizerKind::kWord, 0),
                                TokenizerKind::kWord, 0, 1, 1);
  Options o;
  o.delta = 0.5;
  SearchStats stats;
  EXPECT_TRUE(DiscoverShardAgainst(snap, 0,
                                   ReferenceBlock::SelfJoin(snap.data), o,
                                   &stats)
                  .empty());
  EXPECT_EQ(stats.references, 0u);
}

}  // namespace
}  // namespace silkmoth
