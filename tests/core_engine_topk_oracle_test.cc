// SearchTopK oracle parity: the floating-floor top-k pass must be
// output-identical to scoring everything with Search and keeping the k best
// (relatedness descending, set id ascending) — across metrics, k values
// spanning 1 to beyond the corpus, tie-heavy corpora, and both the exact
// and --approx-scores reporting modes. On top of parity, the whole point of
// the floor: the top-k pass must do strictly less Hungarian work
// (exact_solves + reporting_solves) than the oracle when the floor engages.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/options.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "text/similarity.h"

namespace silkmoth {
namespace {

struct OracleConfig {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
  bool exact_scores;
};

Options MakeOptions(const OracleConfig& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  opt.exact_scores = cfg.exact_scores;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const OracleConfig& cfg, size_t sets) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 40;
  p.min_words = 2;
  p.max_words = 5;
  p.duplicate_rate = 0.5;  // Tie-heavy: exact duplicates force tie-breaks.
  p.typo_rate = 0.2;
  p.seed = 20260808;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

// The score-everything oracle: full Search, sorted the way SearchTopK
// promises to sort (relatedness descending, ties by ascending set id),
// truncated to k.
std::vector<SearchMatch> Oracle(const SilkMoth& engine, const SetRecord& ref,
                                size_t k, ShardedSearchStats* stats) {
  std::vector<SearchMatch> all = engine.Search(ref, stats);
  std::sort(all.begin(), all.end(),
            [](const SearchMatch& a, const SearchMatch& b) {
              if (a.relatedness != b.relatedness) {
                return a.relatedness > b.relatedness;
              }
              return a.set_id < b.set_id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

class TopKOracleSweep : public ::testing::TestWithParam<OracleConfig> {};

TEST_P(TopKOracleSweep, TopKIsOutputIdenticalToScoreEverything) {
  const OracleConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40);
  SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();

  const std::vector<size_t> ks = {1, 5, data.sets.size(),
                                  data.sets.size() + 10};
  for (size_t k : ks) {
    ShardedSearchStats oracle_shards;
    ShardedSearchStats topk_shards;
    size_t nonempty = 0;
    for (const SetRecord& ref : data.sets) {
      if (ref.Empty()) continue;
      const std::vector<SearchMatch> expected =
          Oracle(engine, ref, k, &oracle_shards);
      const std::vector<SearchMatch> got =
          engine.SearchTopK(ref, k, &topk_shards);
      ASSERT_EQ(got.size(), expected.size())
          << cfg.name << ": size mismatch at k " << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].set_id, expected[i].set_id)
            << cfg.name << ": rank " << i << " at k " << k;
        // Same candidate, same decision path (the floor only removes
        // candidates that cannot rank), so the reported scores are
        // bit-identical in both reporting modes.
        EXPECT_DOUBLE_EQ(got[i].matching_score, expected[i].matching_score)
            << cfg.name << ": rank " << i << " at k " << k;
        EXPECT_DOUBLE_EQ(got[i].relatedness, expected[i].relatedness)
            << cfg.name << ": rank " << i << " at k " << k;
      }
      if (!expected.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 0u) << cfg.name << " at k " << k;
    const SearchStats oracle_stats = oracle_shards.Total();
    const SearchStats topk_stats = topk_shards.Total();

    // The floor never adds Hungarian work, and the oracle never floor-
    // rejects.
    EXPECT_LE(topk_stats.exact_solves + topk_stats.reporting_solves,
              oracle_stats.exact_solves + oracle_stats.reporting_solves)
        << cfg.name << " at k " << k;
    EXPECT_EQ(oracle_stats.heap_floor_rejects, 0u);

    if (k == 1) {
      // k far below the match count on a duplicate-heavy corpus: the floor
      // must actually engage and pay for itself.
      EXPECT_GT(topk_stats.heap_floor_rejects, 0u) << cfg.name;
      if (cfg.exact_scores) {
        EXPECT_LT(topk_stats.exact_solves + topk_stats.reporting_solves,
                  oracle_stats.exact_solves + oracle_stats.reporting_solves)
            << cfg.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TopKOracleSweep,
    ::testing::Values(
        OracleConfig{"similarity_jaccard_exact", Relatedness::kSimilarity,
                     SimilarityKind::kJaccard, 0.4, 0.4, true},
        OracleConfig{"similarity_jaccard_approx", Relatedness::kSimilarity,
                     SimilarityKind::kJaccard, 0.4, 0.4, false},
        OracleConfig{"containment_jaccard_exact", Relatedness::kContainment,
                     SimilarityKind::kJaccard, 0.5, 0.0, true},
        OracleConfig{"containment_jaccard_approx", Relatedness::kContainment,
                     SimilarityKind::kJaccard, 0.5, 0.0, false},
        OracleConfig{"similarity_eds_exact", Relatedness::kSimilarity,
                     SimilarityKind::kEds, 0.4, 0.6, true}),
    [](const ::testing::TestParamInfo<OracleConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace silkmoth
