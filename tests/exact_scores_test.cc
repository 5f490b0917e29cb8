// Options::exact_scores contract, on randomized corpora across metrics:
//
//  1. exact_scores == true (the default) is byte-identical to the engine's
//     historical behavior: every reported score is the exact maximum
//     matching score (pinned against the brute-force oracle), and
//     bound_only_scores stays 0.
//  2. exact_scores == false reports the SAME pair set — the related/
//     unrelated decision never changes — but bound-accepted pairs carry the
//     greedy lower bound: score <= exact, relatedness still >= δ (within
//     slack), and every understated score is counted in bound_only_scores.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "text/similarity.h"

namespace silkmoth {
namespace {

struct ScoreCase {
  const char* name;
  Relatedness metric;
  double delta;
};

Collection MakeData(size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 40;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.45;  // Near-duplicates make bound accepts common.
  p.typo_rate = 0.2;
  p.seed = seed;
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

TEST(ExactScoresTest, ExactModeMatchesOracleAndApproxKeepsPairSet) {
  const ScoreCase kCases[] = {
      {"similarity", Relatedness::kSimilarity, 0.5},
      {"containment", Relatedness::kContainment, 0.6},
  };
  size_t approx_reports_seen = 0;
  for (const ScoreCase& cfg : kCases) {
    for (uint64_t seed : {3u, 77u}) {
      SCOPED_TRACE(std::string(cfg.name) + " seed=" + std::to_string(seed));
      Collection data = MakeData(32, seed);
      Options exact_opt;
      exact_opt.metric = cfg.metric;
      exact_opt.delta = cfg.delta;
      Options approx_opt = exact_opt;
      approx_opt.exact_scores = false;

      SilkMoth exact_engine(&data, exact_opt);
      SilkMoth approx_engine(&data, approx_opt);
      ASSERT_TRUE(exact_engine.ok());
      ASSERT_TRUE(approx_engine.ok());

      ShardedSearchStats exact_shards, approx_shards;
      const std::vector<PairMatch> exact = exact_engine.DiscoverSelf(
          &exact_shards);
      const std::vector<PairMatch> approx = approx_engine.DiscoverSelf(
          &approx_shards);
      const SearchStats exact_stats = exact_shards.Total();
      const SearchStats approx_stats = approx_shards.Total();

      // Pin 1: exact mode IS the historical output — oracle-identical, and
      // never a bound-only score.
      BruteForce oracle(&data, exact_opt);
      EXPECT_EQ(exact, oracle.DiscoverSelf());
      EXPECT_EQ(exact_stats.bound_only_scores, 0u);

      // Pin 2: approx mode keeps the pair set; scores only ever drop
      // (often the greedy bound *is* the optimum, so equality is common),
      // every strict drop is one of the counted bound-only reports, and
      // each reported bound still clears δ.
      ASSERT_EQ(approx.size(), exact.size());
      size_t understated = 0;
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(approx[i].ref_id, exact[i].ref_id);
        EXPECT_EQ(approx[i].set_id, exact[i].set_id);
        EXPECT_LE(approx[i].matching_score,
                  exact[i].matching_score + kFloatSlack);
        EXPECT_GE(approx[i].relatedness, exact_opt.delta - 1e-6);
        if (approx[i].matching_score !=
            exact[i].matching_score) {
          ++understated;
        }
      }
      EXPECT_LE(understated, approx_stats.bound_only_scores);
      // Every bound-only report is a bound-settled accept that skipped its
      // reporting solve: the saved solves are exactly the counter.
      EXPECT_LE(approx_stats.bound_only_scores,
                approx_stats.bound_accepts);
      // Decisions themselves must be untouched: same funnel either way.
      EXPECT_EQ(approx_stats.verifications, exact_stats.verifications);
      EXPECT_EQ(approx_stats.bound_accepts, exact_stats.bound_accepts);
      EXPECT_EQ(approx_stats.bound_rejects, exact_stats.bound_rejects);
      approx_reports_seen += approx_stats.bound_only_scores;
    }
  }
  // The sweep must actually exercise the opt-out at least once, or the
  // assertions above are vacuous.
  EXPECT_GT(approx_reports_seen, 0u);
}

// The opt-out threads through a sharded engine unchanged: per-shard
// counters pick up bound_only_scores and the pair set still matches the
// exact run's.
TEST(ExactScoresTest, ShardedApproxKeepsPairSet) {
  Collection data = MakeData(40, 9);
  Options exact_opt;
  exact_opt.delta = 0.5;
  exact_opt.num_shards = 3;
  exact_opt.num_threads = 2;
  Options approx_opt = exact_opt;
  approx_opt.exact_scores = false;

  SilkMoth exact_engine(&data, exact_opt);
  SilkMoth approx_engine(&data, approx_opt);
  ASSERT_TRUE(exact_engine.ok());
  ASSERT_TRUE(approx_engine.ok());
  ShardedSearchStats approx_stats;
  const std::vector<PairMatch> exact = exact_engine.DiscoverSelf();
  const std::vector<PairMatch> approx =
      approx_engine.DiscoverSelf(&approx_stats);

  ASSERT_EQ(approx.size(), exact.size());
  size_t understated = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(approx[i].ref_id, exact[i].ref_id);
    EXPECT_EQ(approx[i].set_id, exact[i].set_id);
    EXPECT_LE(approx[i].matching_score,
              exact[i].matching_score + kFloatSlack);
    if (approx[i].matching_score != exact[i].matching_score) ++understated;
  }
  EXPECT_LE(understated, approx_stats.Total().bound_only_scores);
  EXPECT_GT(approx_stats.Total().bound_only_scores, 0u);
}

}  // namespace
}  // namespace silkmoth
