#include "filter/check_filter.h"

#include <gtest/gtest.h>

#include "core/query_scratch.h"
#include "filter/nn_filter.h"
#include "paper_example.h"
#include "sig/scheme.h"
#include "text/tokenizer.h"

namespace silkmoth {
namespace {

using test::MakePaperExample;
using test::T;

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

const Candidate* Find(const std::vector<Candidate>& cands, uint32_t set_id) {
  for (const Candidate& c : cands) {
    if (c.set_id == set_id) return &c;
  }
  return nullptr;
}

TEST(CheckFilterTest, PaperExample8) {
  // Candidates from the signature are S2, S3, S4; the check filter prunes S2
  // (all matches weak) and keeps S3 and S4.
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);

  CheckFilterStats stats;
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                        ContainOptions(), true, &stats);
  EXPECT_EQ(stats.initial_candidates, 3u);  // S2, S3, S4 (S1 never touched).
  EXPECT_EQ(stats.check_filtered, 1u);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].set_id, 2u);  // S3
  EXPECT_EQ(cands[1].set_id, 3u);  // S4
}

TEST(CheckFilterTest, PaperExample8Similarities) {
  // Jac(r1, s31) = 5/6 >= 0.8 (strong); Jac(r3, s32) = 2/7 < 0.6 (weak).
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                        ContainOptions(), true);
  const Candidate* s3 = Find(cands, 2);
  ASSERT_NE(s3, nullptr);
  // A null scratch is the calling thread's: the bests live there.
  const auto s3_bests = ThreadScratch().BestsOf(*s3);
  ASSERT_EQ(s3_bests.size(), 2u);  // Elements r1 and r3 probed S3.
  EXPECT_EQ(s3_bests[0].first, 0u);
  EXPECT_NEAR(s3_bests[0].second, 5.0 / 6.0, 1e-12);
  EXPECT_EQ(s3_bests[1].first, 2u);
  EXPECT_NEAR(s3_bests[1].second, 2.0 / 7.0, 1e-12);
  EXPECT_TRUE(s3->strong);

  const Candidate* s4 = Find(cands, 3);
  ASSERT_NE(s4, nullptr);
  // r1 vs s41 = 0.8; r2 vs s42 = 1.0 and vs s43 = 3/7 (max is 1.0). r3's
  // signature tokens t11/t12 have no postings in S4, so only two entries.
  const auto s4_bests = ThreadScratch().BestsOf(*s4);
  ASSERT_EQ(s4_bests.size(), 2u);
  EXPECT_EQ(s4_bests[0].first, 0u);
  EXPECT_NEAR(s4_bests[0].second, 0.8, 1e-12);
  EXPECT_EQ(s4_bests[1].first, 1u);
  EXPECT_NEAR(s4_bests[1].second, 1.0, 1e-12);
}

TEST(CheckFilterTest, NullScratchCandidatesStayReadableAfterReturn) {
  // Candidates from a null-scratch call point into the calling thread's
  // scratch: after the call returns they must read exactly what a caller-
  // owned scratch holds for the same query, and stay readable across
  // unrelated work until the thread's next query.
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  const auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                              ContainOptions(), false);
  // Unrelated work in between: a query on another scratch, and an NN search
  // on this thread's scratch (it uses only the visited marks).
  NnSearch(ex.ref.elements[0], 2, ex.data, index, ContainOptions());
  QueryScratch own;
  const auto own_cands =
      SelectAndCheckCandidates(ex.ref, sig, ex.data, index, ContainOptions(),
                               false, nullptr, nullptr, &own);
  ASSERT_EQ(cands.size(), own_cands.size());
  ASSERT_EQ(cands.size(), 3u);
  for (size_t k = 0; k < cands.size(); ++k) {
    EXPECT_EQ(cands[k].set_id, own_cands[k].set_id);
    EXPECT_EQ(cands[k].strong, own_cands[k].strong);
    EXPECT_EQ(ThreadScratch().BestsOf(cands[k]), own.BestsOf(own_cands[k]));
    EXPECT_FALSE(own.BestsOf(own_cands[k]).empty());
  }
}

TEST(CheckFilterTest, DisabledCheckKeepsWeakCandidates) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                        ContainOptions(), false);
  EXPECT_EQ(cands.size(), 3u);  // S2 kept too.
  EXPECT_NE(Find(cands, 1), nullptr);
}

TEST(CheckFilterTest, SizeFilterForSimilarity) {
  // Under SET-SIMILARITY with δ=0.7 and |R|=3, candidate sizes must lie in
  // [2.1, 4.28] -> {3, 4} elements. Add a 1-element set containing the rare
  // signature tokens t11/t12, which the greedy always selects.
  auto ex = MakePaperExample();
  SetRecord tiny;
  tiny.arena = std::make_shared<ElementArena>();
  tiny.elements.push_back(
      Tokenizer(TokenizerKind::kWord)
          .MakeElement("Chicago IL", ex.data.dict.get(), tiny.arena.get()));
  ex.data.sets.push_back(tiny);
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);

  Options sim;
  sim.metric = Relatedness::kSimilarity;
  sim.phi = SimilarityKind::kJaccard;
  sim.delta = 0.7;
  CheckFilterStats stats;
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index, sim,
                                        false, &stats);
  EXPECT_EQ(stats.size_filtered, 1u);
  EXPECT_EQ(Find(cands, 4), nullptr);  // The tiny set is gone.
}

TEST(CheckFilterTest, ContainmentSizeRule) {
  // Under SET-CONTAINMENT, candidates smaller than |R| are dropped when
  // enforcement is on (Definition 2).
  auto ex = MakePaperExample();
  SetRecord small;
  small.elements.push_back(ex.data.sets[1].elements[0]);  // Has t8.
  small.elements.push_back(ex.data.sets[1].elements[1]);
  ex.data.sets.push_back(small);  // 2 elements < |R| = 3.
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);

  Options opt = ContainOptions();
  auto with_rule =
      SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt, false);
  EXPECT_EQ(Find(with_rule, 4), nullptr);

  opt.enforce_containment_size = false;
  auto without_rule =
      SelectAndCheckCandidates(ex.ref, sig, ex.data, index, opt, false);
  EXPECT_NE(Find(without_rule, 4), nullptr);
}

TEST(CheckFilterTest, CandidatesSortedBySetId) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                        ContainOptions(), false);
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LT(cands[i - 1].set_id, cands[i].set_id);
  }
}

TEST(CheckFilterTest, AllCandidatesFallback) {
  auto ex = MakePaperExample();
  auto cands = AllCandidates(ex.ref, ex.data, ContainOptions());
  EXPECT_EQ(cands.size(), 4u);
  for (const Candidate& c : cands) {
    EXPECT_TRUE(c.strong);
    EXPECT_EQ(c.head, kNoBest);
  }
}

TEST(CheckFilterTest, BestEntriesSortedUniquePerElement) {
  auto ex = MakePaperExample();
  InvertedIndex index;
  index.Build(ex.data);
  Signature sig = PaperSignature(ex, index);
  auto cands = SelectAndCheckCandidates(ex.ref, sig, ex.data, index,
                                        ContainOptions(), false);
  for (const Candidate& c : cands) {
    const auto bests = ThreadScratch().BestsOf(c);
    for (size_t i = 1; i < bests.size(); ++i) {
      EXPECT_LT(bests[i - 1].first, bests[i].first);
    }
  }
}

}  // namespace
}  // namespace silkmoth
