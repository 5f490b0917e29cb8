#include "filter/nn_filter.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "matching/verifier.h"
#include "paper_example.h"
#include "sig/scheme.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;

Options ContainOptions(double delta = 0.7, double alpha = 0.0) {
  Options o;
  o.metric = Relatedness::kContainment;
  o.phi = SimilarityKind::kJaccard;
  o.delta = delta;
  o.alpha = alpha;
  return o;
}

Signature PaperSignature(const test::PaperExample& ex,
                         const InvertedIndex& index) {
  SchemeParams p;
  p.scheme = SignatureSchemeKind::kWeighted;
  p.phi = SimilarityKind::kJaccard;
  p.theta = 2.1;
  p.alpha = 0.0;
  return WeightedSignature(ex.ref, index, p);
}

TEST(NnSearchTest, FindsExactNearestNeighbor) {
  // Example 9: the nearest neighbor of r2 in S3 is s33 with Jac = 0.125.
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  const double nn = NnSearch(ex.ref.elements[1], /*set_id=*/2, ex.data, index,
                             ContainOptions());
  EXPECT_NEAR(nn, 0.125, 1e-12);
}

TEST(NnSearchTest, MatchesBruteForceMaximum) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  const Options opt = ContainOptions();
  const ElementSimilarity* sim = GetSimilarity(opt.phi);
  for (const Element& r : ex.ref.elements) {
    for (uint32_t s = 0; s < ex.data.sets.size(); ++s) {
      double expected = 0.0;
      for (const Element& e : ex.data.sets[s].elements) {
        expected = std::max(expected, sim->Score(r, e));
      }
      EXPECT_NEAR(NnSearch(r, s, ex.data, index, opt), expected, 1e-12)
          << "set " << s;
    }
  }
}

TEST(NnSearchTest, AlphaCollapsesWeakNeighbors) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Options opt = ContainOptions(0.7, /*alpha=*/0.9);
  // r2's best neighbor in S3 is 0.125 < 0.9 -> 0 under φ_α.
  EXPECT_DOUBLE_EQ(NnSearch(ex.ref.elements[1], 2, ex.data, index, opt), 0.0);
}

// Seeded sets of 1 to 40 elements, each one to three words drawn from a
// small vocabulary of overlapping words, so elements repeat within and
// across sets and many pairs share q-grams without being equal.
RawSets RandomSets(uint64_t seed, size_t num_sets) {
  static const char* const kWords[] = {
      "data",   "database", "datum",  "base",   "basis",  "query",
      "queries", "quarry",  "join",   "joins",  "joint",  "set",
      "sets",   "setting",  "match",  "matching", "batch", "latch",
      "graph",  "graphs",   "paragraph", "index", "indices", "indexing"};
  constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  Rng rng(seed);
  RawSets raw(num_sets);
  for (auto& set : raw) {
    const size_t size = 1 + rng.NextBounded(40);
    for (size_t e = 0; e < size; ++e) {
      std::string text = kWords[rng.NextBounded(kNumWords)];
      for (uint64_t w = rng.NextBounded(3); w > 0; --w) {
        text += ' ';
        text += kWords[rng.NextBounded(kNumWords)];
      }
      set.push_back(text);
    }
  }
  return raw;
}

struct NnConfig {
  SimilarityKind phi;
  double alpha;
};

TEST(NnSearchTest, ProbeAndScanAreBitIdentical) {
  const NnConfig configs[] = {
      {SimilarityKind::kJaccard, 0.0}, {SimilarityKind::kJaccard, 0.4},
      {SimilarityKind::kEds, 0.0},     {SimilarityKind::kEds, 0.75},
      {SimilarityKind::kNeds, 0.0},    {SimilarityKind::kNeds, 0.6}};
  for (const NnConfig& cfg : configs) {
    Options opt = ContainOptions(0.7, cfg.alpha);
    opt.phi = cfg.phi;
    const RawSets raw = RandomSets(/*seed=*/17 + cfg.alpha * 100, 30);
    const Collection data =
        IsEditSimilarity(cfg.phi)
            ? BuildCollection(raw, TokenizerKind::kQGram, opt.EffectiveQ())
            : BuildCollection(raw, TokenizerKind::kWord);
    InvertedIndex index;
    index.Build(data);
    size_t positive = 0;
    for (uint32_t r = 0; r < 8; ++r) {
      for (const Element& e : data.sets[r].elements) {
        for (uint32_t s = 0; s < data.sets.size(); ++s) {
          const double probe = NnSearchProbe(e, s, data, index, opt);
          const double scan = NnSearchScan(e, s, data, opt);
          ASSERT_EQ(std::bit_cast<uint64_t>(probe),
                    std::bit_cast<uint64_t>(scan))
              << "phi " << static_cast<int>(cfg.phi) << " alpha "
              << cfg.alpha << " set " << s << ": probe " << probe
              << " scan " << scan;
          ASSERT_EQ(std::bit_cast<uint64_t>(NnSearch(e, s, data, index, opt)),
                    std::bit_cast<uint64_t>(probe));
          if (probe > 0.0) ++positive;
        }
      }
    }
    EXPECT_GT(positive, 100u) << "phi " << static_cast<int>(cfg.phi);
  }
}

TEST(NnSearchTest, ChoosesScanForTitlesAndProbeForColumns) {
  // Titles: few words per set, and every q-gram of a word has a long list.
  DblpParams titles;
  titles.num_titles = 4000;
  const Collection title_data = BuildCollection(
      GenerateDblpSets(titles), TokenizerKind::kQGram, MaxQForAlpha(0.8));
  InvertedIndex title_index;
  title_index.Build(title_data);
  const Element& word = title_data.sets[0].elements[0];
  EXPECT_TRUE(
      NnScanIsCheaper(word, title_data.sets[1].Size(), title_index));

  // Columns: 14-30 cells per set, each cell a word or two with short lists.
  WebTableParams columns = InclusionDependencyDefaults(4000);
  columns.min_elements = 14;
  columns.max_elements = 30;
  const Collection column_data =
      BuildCollection(GenerateColumnSets(columns), TokenizerKind::kWord);
  InvertedIndex column_index;
  column_index.Build(column_data);
  const Element& cell = column_data.sets[0].elements[0];
  EXPECT_FALSE(
      NnScanIsCheaper(cell, column_data.sets[1].Size(), column_index));
}

TEST(NnFilterTest, PaperExample9PrunesS3KeepsS4) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  const Options opt = ContainOptions();
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt,
                                        true);
  ASSERT_EQ(cands.size(), 2u);  // S3, S4 from the check filter.

  NnFilterStats stats;
  auto refined = NnFilterCandidates(ex.ref, sig, std::move(cands), ex.data,
                                    index, opt, &stats);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].set_id, 3u);  // Only S4 survives.
  EXPECT_EQ(stats.nn_filtered, 1u);
}

TEST(NnFilterTest, InitialBoundPrunesWithoutAnySearch) {
  // For S3 the reused check-filter similarities already push the total
  // estimate (5/6 + 0.6 + 0.6 ≈ 2.03) below θ = 2.1, so S3 is pruned before
  // any NN search; S4 needs exactly one search (r3). This is the
  // "computation reuse" of Section 5.2 doing its job.
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  const Options opt = ContainOptions();
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt,
                                        true);
  NnFilterStats stats;
  auto refined = NnFilterCandidates(ex.ref, sig, std::move(cands), ex.data,
                                    index, opt, &stats);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(stats.nn_searches, 1u);
}

TEST(NnFilterTest, EarlyTerminationMidScan) {
  // Reference with four elements; the candidate set matches only r1. After
  // the NN searches for r2 and r3 both return 0, the estimate falls below
  // θ = 2.8 with r4 still unexplored: the filter must early-terminate.
  RawSets raw = {
      {"a1 a2 a3 a4", "q1 q2", "q3 q4", "q5 q6"},
  };
  // Fillers make the b/c/d tokens expensive so the greedy signature keeps
  // probing tokens a1..a4 (cost 1) plus one b token.
  for (int f = 0; f < 5; ++f) {
    raw.push_back({"b1 b2 b3 b4", "c1 c2 c3 c4", "d1 d2 d3 d4", "p1 p2"});
  }
  Collection data = BuildCollection(raw, TokenizerKind::kWord);
  SetRecord ref = BuildReference(
      {"a1 a2 a3 a4", "b1 b2 b3 b4", "c1 c2 c3 c4", "d1 d2 d3 d4"},
      TokenizerKind::kWord, 0, &data);
  InvertedIndex index;
  index.Build(data);

  Options opt = ContainOptions(0.7);  // θ = 2.8.
  SchemeParams p;
  p.scheme = SignatureSchemeKind::kWeighted;
  p.phi = SimilarityKind::kJaccard;
  p.theta = 2.8;
  Signature sig = WeightedSignature(ref, index, p);
  ASSERT_TRUE(sig.valid);

  auto cands = SelectAndCheckCandidates(ref, sig, data, index, opt, true);
  NnFilterStats stats;
  auto refined = NnFilterCandidates(ref, sig, std::move(cands), data, index,
                                    opt, &stats);
  EXPECT_GE(stats.early_terminations, 1u);
  // Set 0 (the a-set) must be pruned: only r1 matches it.
  for (const Candidate& c : refined) EXPECT_NE(c.set_id, 0u);
}

TEST(NnFilterTest, NeverPrunesTrulyRelatedSets) {
  // Cross-check on the paper data across thresholds: any set whose true
  // matching score reaches θ must survive the NN filter.
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  for (double delta : {0.3, 0.5, 0.7, 0.9}) {
    Options opt = ContainOptions(delta);
    SchemeParams p;
    p.scheme = SignatureSchemeKind::kWeighted;
    p.phi = SimilarityKind::kJaccard;
    p.theta = delta * 3;
    Signature sig = WeightedSignature(ex.ref, index, p);
    auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt,
                                          true);
    auto refined = NnFilterCandidates(ex.ref, sig, std::move(cands), ex.data,
                                      index, opt);
    // Ground truth via exhaustive matching.
    MaxMatchingVerifier verifier(GetSimilarity(opt.phi), 0.0, false);
    for (uint32_t s = 0; s < ex.data.sets.size(); ++s) {
      const double m = verifier.Score(ex.ref, ex.data.sets[s]);
      if (m >= p.theta) {
        bool survived = false;
        for (const Candidate& c : refined) survived |= c.set_id == s;
        EXPECT_TRUE(survived) << "delta=" << delta << " set=" << s;
      }
    }
  }
}

TEST(NnFilterTest, EmptyCandidateListIsFine) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  auto refined = NnFilterCandidates(ex.ref, sig, {}, ex.data, index,
                                    ContainOptions());
  EXPECT_TRUE(refined.empty());
}

}  // namespace
}  // namespace silkmoth
