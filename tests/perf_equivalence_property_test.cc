// Equivalence properties for the hot-path overhaul, on randomized corpora:
//
//  1. The epoch-stamped scratch candidate accumulator produces byte-identical
//     candidate lists (ids, probed best-match vectors, strong flags, order)
//     to the pre-refactor reference accumulator — an unordered_map rebuilt
//     here exactly as check_filter.cc had it before the refactor — and its
//     output is invariant under scratch reuse across queries.
//  2. The bound-guided verifier (ScoreDecision) never changes an
//     accept/reject decision relative to exact verification, its bounds
//     always sandwich the exact matching score, and the exact Hungarian
//     solver runs only in the ambiguous band lower < θ <= upper.
//  3. The full search pass (scratch accumulator + bound-guided verification)
//     reports the same accepted pairs with the same scores (within
//     kFloatSlack) as the pre-refactor pipeline.
//
// All three properties are swept across the three workload shapes: the
// SET-SIMILARITY and SET-CONTAINMENT metrics over word tokens (Jaccard), and
// edit similarity (Eds over q-grams).
//
//  4. The sparse verifier (edge lists from shared tokens, fingerprint
//     reduction) returns exactly — `==`, not within slack — the decision,
//     bounds, score and counters of the dense verifier it replaced, kept
//     here as a reference, and scores φ only on the pairs it must.

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "core/search_pass.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/hungarian.h"
#include "matching/local_max.h"
#include "matching/verifier.h"
#include "sig/scheme.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

struct WorkloadConfig {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
};

Options MakeOptions(const WorkloadConfig& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const WorkloadConfig& cfg, size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;  // Near-duplicates exercise reduction + accepts.
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

Signature MakeSignature(const SetRecord& ref, const InvertedIndex& index,
                        const Options& options) {
  SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  return GenerateSignature(ref, index, params);
}

// The candidate selection + check filter exactly as it was before the
// scratch refactor: an unordered_map<set_id, Accum> accumulator, drained
// into a vector sorted by set id.
std::vector<Candidate> ReferenceSelectAndCheck(
    const SetRecord& ref, const Signature& sig, const Collection& data,
    const InvertedIndex& index, const Options& options, bool apply_check) {
  const ElementSimilarity* sim = GetSimilarity(options.phi);
  struct Accum {
    Candidate cand;
    bool size_ok = true;
  };
  std::unordered_map<uint32_t, Accum> accum;

  for (uint32_t i = 0; i < sig.probe.size(); ++i) {
    const Element& r_elem = ref.elements[i];
    for (TokenId t : sig.probe[i]) {
      for (const Posting& p : index.List(t)) {
        auto [it, inserted] = accum.try_emplace(p.set_id);
        Accum& a = it->second;
        if (inserted) {
          a.cand.set_id = p.set_id;
          a.size_ok =
              SizeFeasible(ref.Size(), data.sets[p.set_id].Size(), options);
        }
        if (!a.size_ok) continue;
        const Element& s_elem = data.sets[p.set_id].elements[p.elem_id];
        const double score =
            sim->ScoreThresholded(r_elem, s_elem, options.alpha);
        auto& best = a.cand.best;
        if (!best.empty() && best.back().first == i) {
          best.back().second = std::max(best.back().second, score);
        } else {
          best.emplace_back(i, score);
        }
        if (score >= sig.check_threshold[i] - kFloatSlack) {
          a.cand.strong = true;
        }
      }
    }
  }

  const double theta = MatchingThreshold(options.delta, ref.Size());
  const bool bound_certifies = sig.miss_bound_sum < theta - kFloatSlack;

  std::vector<Candidate> out;
  out.reserve(accum.size());
  for (auto& [set_id, a] : accum) {
    if (!a.size_ok) continue;
    if (apply_check && bound_certifies && !a.cand.strong) continue;
    out.push_back(std::move(a.cand));
  }
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.set_id < b.set_id;
            });
  return out;
}

// The verification loop exactly as it was before the bound fast path: an
// unconditional exact maximum matching followed by the IsRelated test.
std::vector<SearchMatch> ReferenceVerify(const SetRecord& ref,
                                         const std::vector<Candidate>& cands,
                                         const Collection& data,
                                         const Options& options,
                                         uint32_t exclude_set) {
  const MaxMatchingVerifier verifier(GetSimilarity(options.phi),
                                     options.alpha, options.reduction);
  std::vector<SearchMatch> results;
  for (const Candidate& cand : cands) {
    if (cand.set_id == exclude_set) continue;
    const SetRecord& s = data.sets[cand.set_id];
    const double m = verifier.Score(ref, s);
    if (IsRelated(m, ref.Size(), s.Size(), options)) {
      SearchMatch match;
      match.set_id = cand.set_id;
      match.matching_score = m;
      match.relatedness = RelatednessScore(m, ref.Size(), s.Size(), options);
      results.push_back(match);
    }
  }
  return results;
}

// The full pre-refactor search pass: reference accumulator, shared NN
// filter, exact verification.
std::vector<SearchMatch> ReferenceSearchPass(const SetRecord& ref,
                                             const Collection& data,
                                             const InvertedIndex& index,
                                             const Options& options,
                                             uint32_t exclude_set) {
  if (ref.Empty()) return {};
  const Signature sig = MakeSignature(ref, index, options);
  std::vector<Candidate> cands;
  if (sig.valid) {
    cands = ReferenceSelectAndCheck(ref, sig, data, index, options,
                                    options.check_filter || options.nn_filter);
    if (options.nn_filter) {
      cands = NnFilterCandidates(ref, sig, std::move(cands), data, index,
                                 options);
    }
  } else {
    cands = AllCandidates(ref, data, options);
  }
  return ReferenceVerify(ref, cands, data, options, exclude_set);
}

class PerfEquivalenceSweep : public ::testing::TestWithParam<WorkloadConfig> {
};

TEST_P(PerfEquivalenceSweep, ScratchAccumulatorMatchesReferenceByteForByte) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40, /*seed=*/cfg.delta * 1000);
  InvertedIndex index;
  index.Build(data);
  const ElementSimilarity* sim = GetSimilarity(opt.phi);

  // One scratch reused across every reference and both filter modes: epoch
  // stamping must make each query independent of all previous ones.
  QueryScratch scratch;
  size_t nonempty = 0;
  for (const SetRecord& ref : data.sets) {
    if (ref.Empty()) continue;
    const Signature sig = MakeSignature(ref, index, opt);
    if (!sig.valid) continue;
    for (bool apply_check : {true, false}) {
      const std::vector<Candidate> expected =
          ReferenceSelectAndCheck(ref, sig, data, index, opt, apply_check);
      const std::vector<Candidate> got = SelectAndCheckCandidates(
          ref, sig, data, index, opt, apply_check, nullptr, sim, &scratch);
      ASSERT_EQ(got, expected)
          << cfg.name << ": candidate mismatch, ref size " << ref.Size()
          << ", apply_check " << apply_check;
      if (!expected.empty()) ++nonempty;
    }
  }
  // The sweep must actually exercise non-trivial selections.
  EXPECT_GT(nonempty, 0u) << cfg.name;
}

TEST_P(PerfEquivalenceSweep, BoundDecisionsMatchExactVerification) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 30, /*seed=*/7 + cfg.delta * 100);
  const MaxMatchingVerifier verifier(GetSimilarity(opt.phi), opt.alpha,
                                     opt.reduction);

  size_t bound_settled = 0;
  size_t exact_solved = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    for (uint32_t s = 0; s < data.sets.size(); ++s) {
      const SetRecord& rs = data.sets[r];
      const SetRecord& ss = data.sets[s];
      if (rs.Empty() || ss.Empty()) continue;
      if (!SizeFeasible(rs.Size(), ss.Size(), opt)) continue;

      // The margin RunSearchPass uses: wide enough to absorb IsRelated's
      // ratio-level slack (worth up to kFloatSlack·(|R|+|S|) on the
      // matching score) plus bound-side summation drift.
      const double theta = RelatedScoreThreshold(rs.Size(), ss.Size(), opt);
      const double margin =
          kFloatSlack * (static_cast<double>(rs.Size() + ss.Size()) + 2.0);
      const double exact = verifier.Score(rs, ss);
      MatchingStats stats;
      const VerifyDecision d =
          verifier.ScoreDecision(rs, ss, theta, &stats, margin);

      // The bounds must sandwich the exact optimum.
      EXPECT_LE(d.lower, exact + kFloatSlack) << cfg.name;
      EXPECT_GE(d.upper, exact - kFloatSlack) << cfg.name;

      // Exactly one counter fires per decision (floor_rejects stays 0
      // without a floating floor); the exact solver runs only in the
      // ambiguous band lower < θ+margin, upper >= θ-margin; and a decision
      // settled by the bounds alone never disagrees with exact verification
      // under the IsRelated test.
      ASSERT_EQ(stats.bound_accepts + stats.bound_rejects +
                    stats.tier2_accepts + stats.exact_solves,
                1u);
      EXPECT_EQ(stats.floor_rejects, 0u);
      if (stats.exact_solves == 1) {
        EXPECT_LT(d.lower, theta + margin) << cfg.name;
        EXPECT_GE(d.upper, theta - margin) << cfg.name;
        EXPECT_DOUBLE_EQ(d.score, exact) << cfg.name;
        EXPECT_TRUE(d.exact);
        ++exact_solved;
      } else {
        ASSERT_EQ(d.related, IsRelated(exact, rs.Size(), ss.Size(), opt))
            << cfg.name << ": decision flip for pair (" << r << ", " << s
            << "), exact " << exact << ", theta " << theta << ", bounds ["
            << d.lower << ", " << d.upper << "]";
        ++bound_settled;
      }

      // The reporting mode must hand back the solver's exact score on
      // accepts without perturbing the decision or the exact_solves count —
      // the reporting-only solve lands in reporting_solves instead.
      if (stats.bound_accepts == 1 || stats.tier2_accepts == 1) {
        MatchingStats rstats;
        const VerifyDecision dr = verifier.ScoreDecision(
            rs, ss, theta, &rstats, margin, /*need_exact_score=*/true);
        EXPECT_TRUE(dr.related);
        EXPECT_TRUE(dr.exact);
        EXPECT_DOUBLE_EQ(dr.score, exact) << cfg.name;
        EXPECT_EQ(rstats.exact_solves, 0u);
        // The trivial path (both sides consumed by reduction) is exact with
        // no solve at all; every other bound-settled accept pays exactly one
        // reporting solve.
        EXPECT_EQ(rstats.reporting_solves, d.exact ? 0u : 1u) << cfg.name;
        EXPECT_EQ(rstats.bound_accepts, stats.bound_accepts);
        EXPECT_EQ(rstats.tier2_accepts, stats.tier2_accepts);
      }
    }
  }
  // The corpus (near-duplicates + unrelated pairs) must exercise the fast
  // path; the ambiguous band may legitimately be empty.
  EXPECT_GT(bound_settled, 0u) << cfg.name;
  EXPECT_GT(bound_settled + exact_solved, 100u) << cfg.name;
}

// A caller-supplied margin below kFloatSlack used to let the bound reject
// (`upper < θ - margin`) contradict the exact accept test (`score >= θ -
// kFloatSlack`) for θ just above the bound sandwich — e.g. margin 0 and
// θ = exact + kFloatSlack/2 on a pair whose upper bound is tight. The
// clamp in ScoreDecision pins every decision to the exact-solver decision
// for ANY margin; sweep θ through a ±2·kFloatSlack band around the exact
// score. Offsets stay at least a half-slack away from the oracle's own
// equality point (off = +1) so the oracle comparison is not ulp-sensitive.
TEST_P(PerfEquivalenceSweep, SubSlackMarginsNeverFlipBoundaryDecisions) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 20, /*seed=*/41);
  const MaxMatchingVerifier verifier(GetSimilarity(opt.phi), opt.alpha,
                                     opt.reduction);
  size_t checked = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    for (uint32_t s = r; s < data.sets.size(); ++s) {
      const SetRecord& rs = data.sets[r];
      const SetRecord& ss = data.sets[s];
      if (rs.Empty() || ss.Empty()) continue;
      const double exact = verifier.Score(rs, ss);
      for (const double off : {-2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 2.0}) {
        const double theta = exact + off * kFloatSlack;
        const bool oracle = exact >= theta - kFloatSlack;
        for (const double margin : {0.0, kFloatSlack / 8, kFloatSlack}) {
          MatchingStats st;
          const VerifyDecision d =
              verifier.ScoreDecision(rs, ss, theta, &st, margin);
          ASSERT_EQ(d.related, oracle)
              << cfg.name << ": boundary flip for pair (" << r << ", " << s
              << "), exact " << exact << ", off " << off << "·slack, margin "
              << margin;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u) << cfg.name;
}

TEST_P(PerfEquivalenceSweep, FullSearchPassMatchesReferencePipeline) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 35, /*seed=*/123);
  InvertedIndex index;
  index.Build(data);

  QueryScratch scratch;
  size_t accepted = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    const SetRecord& ref = data.sets[r];
    const std::vector<SearchMatch> expected =
        ReferenceSearchPass(ref, data, index, opt, r);
    const std::vector<SearchMatch> got =
        RunSearchPass(ref, data, index, opt, r, nullptr, &scratch);
    ASSERT_EQ(got.size(), expected.size())
        << cfg.name << ": accepted-set mismatch for reference " << r;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].set_id, expected[i].set_id) << cfg.name;
      EXPECT_NEAR(got[i].matching_score, expected[i].matching_score,
                  kFloatSlack)
          << cfg.name;
      EXPECT_NEAR(got[i].relatedness, expected[i].relatedness, kFloatSlack)
          << cfg.name;
    }
    accepted += got.size();
  }
  // The duplicate-heavy corpus must produce real matches to compare.
  EXPECT_GT(accepted, 0u) << cfg.name;
}

// ---------------------------------------------------------------------------
// Sparse verifier vs the dense verifier it replaced.

// The reduction's identity key exactly as the dense verifier built it: the
// text for edit similarities, the raw token-id bytes for Jaccard.
std::string ReferenceIdentityKey(const Element& e, SimilarityKind kind) {
  if (IsEditSimilarity(kind)) return std::string(e.text);
  std::string key;
  for (TokenId t : e.tokens) {
    key.append(reinterpret_cast<const char*>(&t), sizeof(t));
  }
  return key;
}

// The dense verifier's string-map reduction: R elements pair with S
// elements of the same key while S has unpaired copies left, and S drops
// the first k occurrences of each key R paired k times.
size_t ReferenceSelect(const SetRecord& r, const SetRecord& s,
                       SimilarityKind kind, bool reduction,
                       std::vector<const Element*>* r_elems,
                       std::vector<const Element*>* s_elems) {
  r_elems->clear();
  s_elems->clear();
  if (!reduction) {
    for (const Element& e : r.elements) r_elems->push_back(&e);
    for (const Element& e : s.elements) s_elems->push_back(&e);
    return 0;
  }
  size_t reduced = 0;
  std::unordered_map<std::string, int> s_counts;
  for (const Element& e : s.elements) {
    s_counts[ReferenceIdentityKey(e, kind)] += 1;
  }
  std::unordered_map<std::string, int> consumed;
  for (const Element& e : r.elements) {
    const std::string key = ReferenceIdentityKey(e, kind);
    auto it = s_counts.find(key);
    const int available = it == s_counts.end() ? 0 : it->second;
    int& used = consumed[key];
    if (used < available) {
      ++used;
      ++reduced;
    } else {
      r_elems->push_back(&e);
    }
  }
  std::unordered_map<std::string, int> to_skip = consumed;
  for (const Element& e : s.elements) {
    auto it = to_skip.find(ReferenceIdentityKey(e, kind));
    if (it != to_skip.end() && it->second > 0) {
      --it->second;
    } else {
      s_elems->push_back(&e);
    }
  }
  return reduced;
}

// MaxMatchingVerifier::ScoreDecision as it was before the edge lists: one
// dense |R|×|S| φ_α fill, bounds and greedy over the full matrix.
VerifyDecision ReferenceScoreDecision(const ElementSimilarity* sim,
                                      double alpha, bool use_reduction,
                                      const SetRecord& r, const SetRecord& s,
                                      double theta, MatchingStats* stats,
                                      double margin, bool need_exact_score,
                                      double floor_theta) {
  const bool reduction =
      use_reduction && alpha <= kFloatSlack && sim->HasMetricDual();
  margin = std::max(margin, kFloatSlack);
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced =
      ReferenceSelect(r, s, sim->kind(), reduction, &r_elems, &s_elems);
  stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);

  VerifyDecision d;
  if (r_elems.empty() || s_elems.empty()) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    if (d.related) ++stats->bound_accepts;
    else ++stats->bound_rejects;
    return d;
  }

  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();
  WeightMatrix w(rows, cols);
  std::vector<double> row_max(rows, 0.0);
  std::vector<double> col_max(cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double v = sim->ScoreThresholded(*r_elems[i], *s_elems[j], alpha);
      w.At(i, j) = v;
      row_max[i] = std::max(row_max[i], v);
      col_max[j] = std::max(col_max[j], v);
    }
  }
  stats->matrix_rows = rows;
  stats->matrix_cols = cols;
  stats->similarity_calls += rows * cols;

  double row_sum = 0.0;
  for (double v : row_max) row_sum += v;
  double col_sum = 0.0;
  for (double v : col_max) col_sum += v;
  d.upper = base + std::min(row_sum, col_sum);
  d.lower = base;
  if (d.upper < theta - margin) {
    d.related = false;
    d.score = d.upper;
    ++stats->bound_rejects;
    return d;
  }
  if (floor_theta > theta && d.upper < floor_theta - margin) {
    d.related = false;
    d.score = d.upper;
    ++stats->floor_rejects;
    return d;
  }

  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (row_max[a] != row_max[b]) return row_max[a] > row_max[b];
    return a < b;
  });
  std::vector<uint8_t> col_used(cols, 0);
  double greedy = 0.0;
  for (uint32_t i : order) {
    if (row_max[i] <= 0.0) break;
    double best = 0.0;
    size_t best_j = cols;
    for (size_t j = 0; j < cols; ++j) {
      if (!col_used[j] && w.At(i, j) > best) {
        best = w.At(i, j);
        best_j = j;
      }
    }
    if (best_j < cols) {
      col_used[best_j] = 1;
      greedy += best;
    }
  }
  d.lower = base + greedy;
  if (d.lower >= theta + margin) {
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    ++stats->bound_accepts;
    return d;
  }
  d.lower = base + std::max(greedy, LocalMaxMatchingScore(w));
  if (d.lower >= theta + margin) {
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    ++stats->tier2_accepts;
    return d;
  }
  d.score = base + MaxWeightMatchingScore(w);
  d.exact = true;
  d.related = d.score >= theta - kFloatSlack;
  ++stats->exact_solves;
  return d;
}

// Forwards to the real φ (kind() and HasMetricDual() included, as the
// benchmark's tracing wrapper does) and records every thresholded pair.
class RecordingSimilarity final : public ElementSimilarity {
 public:
  explicit RecordingSimilarity(const ElementSimilarity* inner)
      : inner_(inner) {}
  SimilarityKind kind() const override { return inner_->kind(); }
  bool HasMetricDual() const override { return inner_->HasMetricDual(); }
  double Score(const Element& a, const Element& b) const override {
    return inner_->Score(a, b);
  }
  double ScoreThresholded(const Element& a, const Element& b,
                          double alpha) const override {
    calls.emplace_back(&a, &b);
    return inner_->ScoreThresholded(a, b, alpha);
  }
  mutable std::vector<std::pair<const Element*, const Element*>> calls;

 private:
  const ElementSimilarity* inner_;
};

bool ShareToken(const Element& a, const Element& b) {
  size_t i = 0, j = 0;
  while (i < a.tokens.size() && j < b.tokens.size()) {
    if (a.tokens[i] == b.tokens[j]) return true;
    if (a.tokens[i] < b.tokens[j]) ++i;
    else ++j;
  }
  return false;
}

// The pairs the sparse verifier must score on the reference's survivors:
// every pair sharing a token for Jaccard, every pair for edit φ.
std::set<std::pair<const Element*, const Element*>> ExpectedScoredPairs(
    const std::vector<const Element*>& r_elems,
    const std::vector<const Element*>& s_elems, SimilarityKind kind) {
  std::set<std::pair<const Element*, const Element*>> out;
  if (r_elems.empty() || s_elems.empty()) return out;
  for (const Element* a : r_elems) {
    for (const Element* b : s_elems) {
      if (IsEditSimilarity(kind) || ShareToken(*a, *b)) out.emplace(a, b);
    }
  }
  return out;
}

// Appends an element over words w<id> of `ids`: tokens are the sorted
// unique ids (Jaccard's view), text the words in the given order.
void AddWords(SetRecord* set, const std::vector<TokenId>& ids) {
  std::string text;
  for (TokenId id : ids) {
    if (!text.empty()) text.push_back(' ');
    text += "w" + std::to_string(id);
  }
  std::vector<TokenId> tokens = ids;
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  if (!set->arena) set->arena = std::make_shared<ElementArena>();
  set->elements.push_back(MakeArenaElement(set->arena.get(), text, tokens));
}

// A random pair of sets over a small vocabulary: empty-token elements,
// elements copied between and within the sets (reduction with
// multiplicities), and — in `disjoint` trials — no token shared at all.
std::pair<SetRecord, SetRecord> RandomPair(Rng* rng, bool disjoint) {
  auto random_ids = [&](TokenId offset) {
    std::vector<TokenId> ids;
    if (rng->NextBool(0.08)) return ids;  // Empty-token element.
    const size_t n = 1 + rng->NextBounded(3);
    for (size_t k = 0; k < n; ++k) {
      ids.push_back(offset + static_cast<TokenId>(rng->NextBounded(8)));
    }
    return ids;
  };
  std::vector<std::vector<TokenId>> r_ids, s_ids;
  const size_t nr = 1 + rng->NextBounded(7);
  const size_t ns = 1 + rng->NextBounded(7);
  for (size_t i = 0; i < nr; ++i) {
    r_ids.push_back(i > 0 && rng->NextBool(0.2)
                        ? r_ids[rng->NextBounded(i)]
                        : random_ids(0));
  }
  for (size_t j = 0; j < ns; ++j) {
    if (!disjoint && rng->NextBool(0.35)) {
      s_ids.push_back(r_ids[rng->NextBounded(nr)]);
    } else if (j > 0 && rng->NextBool(0.2)) {
      s_ids.push_back(s_ids[rng->NextBounded(j)]);
    } else {
      s_ids.push_back(random_ids(disjoint ? 100 : 0));
    }
  }
  std::pair<SetRecord, SetRecord> out;
  for (const auto& ids : r_ids) AddWords(&out.first, ids);
  for (const auto& ids : s_ids) AddWords(&out.second, ids);
  return out;
}

struct SparseCase {
  SimilarityKind kind;
  double alpha;
};

TEST(SparseVerifierParity, MatchesDenseReferenceExactly) {
  const SparseCase cases[] = {
      {SimilarityKind::kJaccard, 0.0}, {SimilarityKind::kJaccard, 0.3},
      {SimilarityKind::kJaccard, 0.6}, {SimilarityKind::kEds, 0.0},
      {SimilarityKind::kEds, 0.5},     {SimilarityKind::kNeds, 0.0},
      {SimilarityKind::kNeds, 0.5}};
  Rng rng(2024);
  std::map<std::string, size_t> outcomes;
  for (const SparseCase& c : cases) {
    const ElementSimilarity* plain = GetSimilarity(c.kind);
    RecordingSimilarity recording(plain);
    for (int trial = 0; trial < 150; ++trial) {
      const auto [r, s] = RandomPair(&rng, /*disjoint=*/trial % 10 == 0);
      const double small =
          static_cast<double>(std::min(r.Size(), s.Size()));
      for (const bool reduction : {false, true}) {
        const MaxMatchingVerifier verifier(&recording, c.alpha, reduction);
        const double exact = verifier.Score(r, s);
        std::vector<const Element*> r_left, s_left;
        ReferenceSelect(r, s, c.kind, verifier.ReductionActive(), &r_left,
                        &s_left);
        const auto expected_pairs = ExpectedScoredPairs(r_left, s_left, c.kind);
        // θ below, at and above the optimum; small multiples of the smaller
        // side; the floor off, just above θ and far above it.
        for (const double theta :
             {0.0, 0.25 * small, 0.5 * small, exact, exact + 0.2, small}) {
          for (const double floor_theta : {-1.0, theta + 0.1, theta + 1.5}) {
            for (const bool need_exact : {false, true}) {
              const double margin = kFloatSlack *
                                    (static_cast<double>(r.Size() + s.Size()) +
                                     2.0);
              MatchingStats want_stats;
              const VerifyDecision want = ReferenceScoreDecision(
                  plain, c.alpha, reduction, r, s, theta, &want_stats, margin,
                  need_exact, floor_theta);
              recording.calls.clear();
              MatchingStats got_stats;
              const VerifyDecision got =
                  verifier.ScoreDecision(r, s, theta, &got_stats, margin,
                                         need_exact, floor_theta);
              const std::string where =
                  std::string(SimilarityKindName(c.kind)) + " alpha " +
                  std::to_string(c.alpha) + " trial " +
                  std::to_string(trial) + " reduction " +
                  std::to_string(reduction) + " theta " +
                  std::to_string(theta) + " floor " +
                  std::to_string(floor_theta) + " need_exact " +
                  std::to_string(need_exact);
              ASSERT_EQ(got.related, want.related) << where;
              ASSERT_EQ(got.exact, want.exact) << where;
              ASSERT_EQ(got.score, want.score) << where;
              ASSERT_EQ(got.lower, want.lower) << where;
              ASSERT_EQ(got.upper, want.upper) << where;
              ASSERT_EQ(got_stats.matrix_rows, want_stats.matrix_rows) << where;
              ASSERT_EQ(got_stats.matrix_cols, want_stats.matrix_cols) << where;
              ASSERT_EQ(got_stats.reduced_pairs, want_stats.reduced_pairs)
                  << where;
              ASSERT_EQ(got_stats.bound_accepts, want_stats.bound_accepts)
                  << where;
              ASSERT_EQ(got_stats.bound_rejects, want_stats.bound_rejects)
                  << where;
              ASSERT_EQ(got_stats.tier2_accepts, want_stats.tier2_accepts)
                  << where;
              ASSERT_EQ(got_stats.floor_rejects, want_stats.floor_rejects)
                  << where;
              ASSERT_EQ(got_stats.exact_solves, want_stats.exact_solves)
                  << where;
              ASSERT_EQ(got_stats.reporting_solves,
                        want_stats.reporting_solves)
                  << where;
              // φ runs on exactly the pairs that can be positive, each once.
              ASSERT_EQ(got_stats.similarity_calls, expected_pairs.size())
                  << where;
              ASSERT_EQ(recording.calls.size(), expected_pairs.size())
                  << where;
              const std::set<std::pair<const Element*, const Element*>>
                  scored(recording.calls.begin(), recording.calls.end());
              ASSERT_EQ(scored, expected_pairs) << where;
              if (want_stats.bound_accepts) ++outcomes["bound_accept"];
              if (want_stats.bound_rejects) ++outcomes["bound_reject"];
              if (want_stats.tier2_accepts) ++outcomes["tier2_accept"];
              if (want_stats.floor_rejects) ++outcomes["floor_reject"];
              if (want_stats.exact_solves) ++outcomes["exact_solve"];
              if (want_stats.reporting_solves) ++outcomes["reporting_solve"];
              if (want_stats.reduced_pairs > 0) ++outcomes["reduced"];
            }
          }
        }
      }
    }
  }
  // The sweep must reach every way a decision can be settled.
  for (const char* outcome :
       {"bound_accept", "bound_reject", "tier2_accept", "floor_reject",
        "exact_solve", "reporting_solve", "reduced"}) {
    EXPECT_GT(outcomes[outcome], 0u) << outcome;
  }
}

// Reduction with multiplicities: R holds three copies of one identity and S
// two, interleaved with other elements. The first two R copies take the two
// S copies in S order; the survivors are checked against the string-map
// reference through the pairs φ is called on.
TEST(SparseVerifierParity, ReductionWithMultiplicitiesMatchesStringMap) {
  for (const SimilarityKind kind :
       {SimilarityKind::kJaccard, SimilarityKind::kEds}) {
    // Token 0 is in every element, so every survivor pair is scored and
    // the recorded calls name the survivors on both sides.
    SetRecord r;
    SetRecord s;
    AddWords(&r, {0, 1});     // copy 1 of {0, 1}
    AddWords(&r, {0, 2});
    AddWords(&r, {0, 1});     // copy 2
    AddWords(&r, {0, 3});
    AddWords(&r, {0, 1});     // copy 3
    AddWords(&s, {0, 4});
    AddWords(&s, {0, 1});     // copy 1
    AddWords(&s, {0, 2});
    AddWords(&s, {0, 1});     // copy 2
    AddWords(&s, {0, 5});
    if (kind == SimilarityKind::kJaccard) {
      AddWords(&s, {1, 0});   // Same token set as {0, 1}, other text.
    }
    RecordingSimilarity recording(GetSimilarity(kind));
    const MaxMatchingVerifier verifier(&recording, 0.0, true);
    ASSERT_TRUE(verifier.ReductionActive());

    std::vector<const Element*> r_left, s_left;
    const size_t want_reduced =
        ReferenceSelect(r, s, kind, true, &r_left, &s_left);
    EXPECT_EQ(want_reduced, kind == SimilarityKind::kJaccard ? 4u : 3u);

    MatchingStats stats;
    verifier.ScoreDecision(r, s, /*theta=*/100.0, &stats);
    EXPECT_EQ(stats.reduced_pairs, want_reduced) << SimilarityKindName(kind);
    EXPECT_EQ(stats.matrix_rows, r_left.size());
    EXPECT_EQ(stats.matrix_cols, s_left.size());
    std::set<const Element*> r_seen, s_seen;
    for (const auto& [a, b] : recording.calls) {
      r_seen.insert(a);
      s_seen.insert(b);
    }
    EXPECT_EQ(r_seen,
              std::set<const Element*>(r_left.begin(), r_left.end()))
        << SimilarityKindName(kind);
    EXPECT_EQ(s_seen,
              std::set<const Element*>(s_left.begin(), s_left.end()))
        << SimilarityKindName(kind);
    // The survivors by position. {0, 2} pairs off; for Eds the third R
    // copy of {0, 1} survives, for Jaccard it takes S's reordered copy.
    if (kind == SimilarityKind::kEds) {
      EXPECT_EQ(r_seen, (std::set<const Element*>{&r.elements[3],
                                                  &r.elements[4]}));
    } else {
      EXPECT_EQ(r_seen, (std::set<const Element*>{&r.elements[3]}));
    }
    EXPECT_EQ(s_seen, (std::set<const Element*>{&s.elements[0],
                                                &s.elements[4]}))
        << SimilarityKindName(kind);
  }
}

// These two token sets have the same 64-bit identity fingerprint in the
// verifier's reduction (a birthday-search collision of its FNV-style word
// hash), so a reduction that trusted the hash would pair them as identical.
TEST(SparseVerifierParity, FingerprintCollisionIsNotAnIdentity) {
  SetRecord r;
  SetRecord s;
  AddWords(&r, {361939, 904046204, 1073741824});
  AddWords(&s, {458168, 815449714, 3754286897u});
  const MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard),
                                     0.0, true);
  MatchingStats stats;
  const VerifyDecision d = verifier.ScoreDecision(r, s, 0.5, &stats);
  EXPECT_EQ(stats.reduced_pairs, 0u);
  EXPECT_EQ(d.score, 0.0);
  EXPECT_FALSE(d.related);
  EXPECT_EQ(verifier.Score(r, s), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerfEquivalenceSweep,
    ::testing::Values(
        WorkloadConfig{"similarity_jaccard", Relatedness::kSimilarity,
                       SimilarityKind::kJaccard, 0.6, 0.4},
        WorkloadConfig{"containment_jaccard", Relatedness::kContainment,
                       SimilarityKind::kJaccard, 0.7, 0.0},
        WorkloadConfig{"similarity_eds", Relatedness::kSimilarity,
                       SimilarityKind::kEds, 0.5, 0.6}),
    [](const ::testing::TestParamInfo<WorkloadConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace silkmoth
