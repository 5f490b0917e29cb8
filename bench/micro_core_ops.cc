// Component micro-benchmarks (google-benchmark): Levenshtein variants,
// Hungarian matching, reduction-based verification, bound-guided
// verification decisions, inverted index build, signature generation,
// candidate selection on the reusable query scratch, and NN search by
// probing the index vs scanning the set. These are ablations for the design
// choices DESIGN.md calls out; they are not paper figures.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/histogram.h"
#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "index/inverted_index.h"
#include "matching/hungarian.h"
#include "matching/verifier.h"
#include "sig/scheme.h"
#include "text/levenshtein.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

std::string RandomString(Rng* rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->NextBounded(26)));
  }
  return s;
}

void BM_LevenshteinFull(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  const std::string a = RandomString(&rng, len);
  const std::string b = RandomString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinFull)->Arg(16)->Arg(64)->Arg(256);

void BM_LevenshteinBounded(benchmark::State& state) {
  Rng rng(2);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(&rng, len);
  std::string b = a;
  // Distance 1 under budget 4: the bit-vector path up to 64 bytes, the
  // banded DP beyond.
  b[len / 2] = '!';
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedLevenshtein(a, b, 4));
  }
}
BENCHMARK(BM_LevenshteinBounded)->Arg(16)->Arg(64)->Arg(256);

// The regime of an Eds join at α = 0.8 over DBLP words: 6-8-byte words under
// budget 1, the direct one-edit test. Arg 1 pairs words at distance 1, arg 2
// at distance 2 (over budget).
void BM_LevenshteinWordBudget1(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 64; ++i) {
    const std::string a = RandomString(&rng, 6 + rng.NextBounded(3));
    std::string b = a;
    b[rng.NextBounded(b.size())] = '!';
    if (state.range(0) == 2) b.insert(rng.NextBounded(b.size() + 1), "?");
    pairs.emplace_back(a, b);
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 63];
    benchmark::DoNotOptimize(BoundedLevenshtein(a, b, 1));
  }
}
BENCHMARK(BM_LevenshteinWordBudget1)->Arg(1)->Arg(2);

// Budget 3 on 32-byte strings three edits apart: the bit-vector path.
void BM_LevenshteinBitVector32(benchmark::State& state) {
  Rng rng(6);
  const std::string a = RandomString(&rng, 32);
  std::string b = a;
  b[3] = '!';
  b[17] = '!';
  b.erase(28, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedLevenshtein(a, b, 3));
  }
}
BENCHMARK(BM_LevenshteinBitVector32);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  WeightMatrix w(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) w.At(i, j) = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightMatchingScore(w));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(128);

Collection ColumnData(size_t sets, size_t min_elems, size_t max_elems) {
  WebTableParams p = InclusionDependencyDefaults(sets);
  p.min_elements = min_elems;
  p.max_elements = max_elems;
  return BuildCollection(GenerateColumnSets(p), TokenizerKind::kWord);
}

void BM_VerifierPlain(benchmark::State& state) {
  Collection data = ColumnData(12, static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) + 10);
  MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                               false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.Score(data.sets[0], data.sets[1]));
  }
}
BENCHMARK(BM_VerifierPlain)->Arg(30)->Arg(100);

void BM_VerifierReduction(benchmark::State& state) {
  Collection data = ColumnData(12, static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) + 10);
  MaxMatchingVerifier verifier(GetSimilarity(SimilarityKind::kJaccard), 0.0,
                               true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.Score(data.sets[0], data.sets[1]));
  }
}
BENCHMARK(BM_VerifierReduction)->Arg(30)->Arg(100);

// --- Bound-guided verification decisions -----------------------------------
// The θ-threshold test over every candidate pair of a column corpus: the
// pre-refactor path runs the exact O(n³) Hungarian solver per pair; the
// bound-guided path answers from the greedy lower bound / maxima upper bound
// sandwich and solves exactly only in the ambiguous band. The ≥2× acceptance
// target of the hot-path overhaul is measured here.

Options DecisionOptions() {
  Options opt;
  opt.metric = Relatedness::kContainment;
  opt.phi = SimilarityKind::kJaccard;
  opt.delta = 0.7;
  return opt;
}

void BM_VerifyDecisionExact(benchmark::State& state) {
  Collection data = ColumnData(12, static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) + 10);
  const Options opt = DecisionOptions();
  MaxMatchingVerifier verifier(GetSimilarity(opt.phi), 0.0, true);
  for (auto _ : state) {
    for (uint32_t r = 0; r + 1 < data.sets.size(); ++r) {
      const SetRecord& a = data.sets[r];
      const SetRecord& b = data.sets[r + 1];
      const double theta = RelatedScoreThreshold(a.Size(), b.Size(), opt);
      const double m = verifier.Score(a, b);
      benchmark::DoNotOptimize(m >= theta - kFloatSlack);
    }
  }
}
BENCHMARK(BM_VerifyDecisionExact)->Arg(30)->Arg(100);

void BM_VerifyDecisionBounded(benchmark::State& state) {
  Collection data = ColumnData(12, static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) + 10);
  const Options opt = DecisionOptions();
  // need_exact_score mirrors RunSearchPass, which also solves on the
  // already-built matrix to report accepted pairs' exact scores.
  const bool need_exact_score = state.range(1) != 0;
  MaxMatchingVerifier verifier(GetSimilarity(opt.phi), 0.0, true);
  MatchingStats stats;
  for (auto _ : state) {
    for (uint32_t r = 0; r + 1 < data.sets.size(); ++r) {
      const SetRecord& a = data.sets[r];
      const SetRecord& b = data.sets[r + 1];
      const double theta = RelatedScoreThreshold(a.Size(), b.Size(), opt);
      const double margin =
          kFloatSlack * (static_cast<double>(a.Size() + b.Size()) + 2.0);
      benchmark::DoNotOptimize(verifier.ScoreDecision(
          a, b, theta, &stats, margin, need_exact_score));
    }
  }
  // How often the bounds settled the decision, visible in CI logs.
  state.counters["bound_accepts"] = static_cast<double>(stats.bound_accepts);
  state.counters["bound_rejects"] = static_cast<double>(stats.bound_rejects);
  state.counters["exact_solves"] = static_cast<double>(stats.exact_solves);
}
BENCHMARK(BM_VerifyDecisionBounded)
    ->Args({30, 0})
    ->Args({100, 0})
    ->Args({30, 1})   // Decision + exact score on accepts (search-pass mode).
    ->Args({100, 1});

// Decisions on columns-shaped pairs (14-30 cells, containment at δ = 0.05)
// that share few tokens, the case the top-k column search verifies most:
// the verifier scores φ only on pairs sharing a token, so `phi_per_cell`
// (φ calls over |R|×|S| cells) shows how sparse the graph was.
void BM_VerifyDecisionSparse(benchmark::State& state) {
  Collection data = ColumnData(64, 14, 30);
  Options opt = DecisionOptions();
  opt.delta = 0.05;
  MaxMatchingVerifier verifier(GetSimilarity(opt.phi), 0.0, true);
  size_t calls = 0;
  size_t cells = 0;
  for (auto _ : state) {
    for (uint32_t r = 0; r + 1 < data.sets.size(); ++r) {
      const SetRecord& a = data.sets[r];
      const SetRecord& b = data.sets[r + 1];
      const double theta = RelatedScoreThreshold(a.Size(), b.Size(), opt);
      const double margin =
          kFloatSlack * (static_cast<double>(a.Size() + b.Size()) + 2.0);
      MatchingStats stats;
      benchmark::DoNotOptimize(
          verifier.ScoreDecision(a, b, theta, &stats, margin, true));
      calls += stats.similarity_calls;
      cells += stats.matrix_rows * stats.matrix_cols;
    }
  }
  state.counters["phi_per_cell"] =
      cells == 0 ? 0.0 : static_cast<double>(calls) / static_cast<double>(cells);
}
BENCHMARK(BM_VerifyDecisionSparse);

// --- Candidate selection on the reusable query scratch ---------------------

void BM_SelectAndCheck(benchmark::State& state) {
  Collection data = ColumnData(500, 14, 30);
  InvertedIndex index;
  index.Build(data);
  Options opt;
  opt.metric = Relatedness::kSimilarity;
  opt.phi = SimilarityKind::kJaccard;
  opt.delta = 0.6;
  const ElementSimilarity* sim = GetSimilarity(opt.phi);
  const bool reuse = state.range(0) != 0;
  QueryScratch persistent;
  size_t i = 0;
  for (auto _ : state) {
    QueryScratch fresh;
    QueryScratch* scratch = reuse ? &persistent : &fresh;
    const SetRecord& ref = data.sets[i++ % data.sets.size()];
    SchemeParams params;
    params.scheme = opt.scheme;
    params.phi = opt.phi;
    params.theta = MatchingThreshold(opt.delta, ref.Size());
    const Signature sig = GenerateSignature(ref, index, params);
    if (!sig.valid) continue;
    benchmark::DoNotOptimize(SelectAndCheckCandidates(
        ref, sig, data, index, opt, true, nullptr, sim, scratch));
  }
}
BENCHMARK(BM_SelectAndCheck)
    ->Arg(0)   // Fresh scratch per query (allocation cost included).
    ->Arg(1);  // Reused per-thread scratch (the engine's hot path).

void BM_IndexBuild(benchmark::State& state) {
  Collection data = ColumnData(static_cast<size_t>(state.range(0)), 14, 30);
  for (auto _ : state) {
    InvertedIndex index;
    index.Build(data);
    benchmark::DoNotOptimize(index.TotalPostings());
  }
}
BENCHMARK(BM_IndexBuild)->Arg(500)->Arg(2000);

void BM_SignatureGeneration(benchmark::State& state) {
  Collection data = ColumnData(1000, 14, 30);
  InvertedIndex index;
  index.Build(data);
  SchemeParams params;
  params.scheme = static_cast<SignatureSchemeKind>(state.range(0));
  params.phi = SimilarityKind::kJaccard;
  params.alpha = 0.5;
  size_t i = 0;
  for (auto _ : state) {
    const SetRecord& ref = data.sets[i++ % data.sets.size()];
    params.theta = 0.7 * static_cast<double>(ref.Size());
    benchmark::DoNotOptimize(GenerateSignature(ref, index, params));
  }
}
BENCHMARK(BM_SignatureGeneration)
    ->Arg(static_cast<int>(SignatureSchemeKind::kWeighted))
    ->Arg(static_cast<int>(SignatureSchemeKind::kCombUnweighted))
    ->Arg(static_cast<int>(SignatureSchemeKind::kSkyline))
    ->Arg(static_cast<int>(SignatureSchemeKind::kDichotomy));

// --- NN search: probe the index vs scan the set ---------------------------

// One corpus and its index, with the (r, S) pairs the NN benchmarks cycle
// through: 512 seeded pairs of an element of one set and another set.
struct NnShape {
  Collection data;
  InvertedIndex index;
  Options options;
  std::vector<std::pair<const Element*, uint32_t>> pairs;
};

NnShape MakeNnShape(Collection data, Options options) {
  NnShape shape{std::move(data), {}, options, {}};
  shape.index.Build(shape.data);
  Rng rng(5);
  const size_t n = shape.data.sets.size();
  while (shape.pairs.size() < 512) {
    const SetRecord& r = shape.data.sets[rng.NextBounded(n)];
    if (r.Empty()) continue;
    shape.pairs.emplace_back(&r.elements[rng.NextBounded(r.Size())],
                             static_cast<uint32_t>(rng.NextBounded(n)));
  }
  return shape;
}

// Arg 0: title-shaped, the titles-eds-join corpus at a quarter of its size
// (5-12 words per set, q-grams of α = 0.8, Eds). Arg 1: column-shaped, the
// columns-topk-search corpus at a fifth of its size (14-30 cells per set,
// word tokens, Jaccard).
const NnShape& NnShapeFor(int64_t arg) {
  static const NnShape titles = [] {
    Options o;
    o.phi = SimilarityKind::kEds;
    o.alpha = 0.8;
    DblpParams p;
    p.num_titles = 2000;
    return MakeNnShape(BuildCollection(GenerateDblpSets(p),
                                       TokenizerKind::kQGram, o.EffectiveQ()),
                       o);
  }();
  static const NnShape columns = [] {
    Options o;
    o.metric = Relatedness::kContainment;
    return MakeNnShape(ColumnData(4000, 14, 30), o);
  }();
  return arg == 0 ? titles : columns;
}

// Runs `search` over the shape's pairs; reports the share of pairs on which
// NnSearch would scan, and φ calls per search.
template <typename Search>
void RunNnBench(benchmark::State& state, Search search) {
  const NnShape& shape = NnShapeFor(state.range(0));
  const ElementSimilarity* sim = GetSimilarity(shape.options.phi);
  QueryScratch scratch;
  NnFilterStats stats;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [r, set_id] = shape.pairs[i++ % shape.pairs.size()];
    benchmark::DoNotOptimize(search(*r, set_id, shape, sim, &scratch, &stats));
  }
  size_t scans = 0;
  for (const auto& [r, set_id] : shape.pairs) {
    scans += NnScanIsCheaper(*r, shape.data.sets[set_id].Size(), shape.index);
  }
  state.counters["scan_share"] = static_cast<double>(scans) /
                                 static_cast<double>(shape.pairs.size());
  state.counters["phi_per_search"] =
      static_cast<double>(stats.similarity_calls) /
      static_cast<double>(std::max<size_t>(i, 1));
}

void BM_NnSearchProbe(benchmark::State& state) {
  RunNnBench(state, [](const Element& r, uint32_t s, const NnShape& shape,
                       const ElementSimilarity* sim, QueryScratch* scratch,
                       NnFilterStats* stats) {
    return NnSearchProbe(r, s, shape.data, shape.index, shape.options, stats,
                         sim, scratch);
  });
}
BENCHMARK(BM_NnSearchProbe)->Arg(0)->Arg(1);

void BM_NnSearchScan(benchmark::State& state) {
  RunNnBench(state, [](const Element& r, uint32_t s, const NnShape& shape,
                       const ElementSimilarity* sim, QueryScratch*,
                       NnFilterStats* stats) {
    return NnSearchScan(r, s, shape.data, shape.options, stats, sim);
  });
}
BENCHMARK(BM_NnSearchScan)->Arg(0)->Arg(1);

void BM_NnSearch(benchmark::State& state) {
  RunNnBench(state, [](const Element& r, uint32_t s, const NnShape& shape,
                       const ElementSimilarity* sim, QueryScratch* scratch,
                       NnFilterStats* stats) {
    return NnSearch(r, s, shape.data, shape.index, shape.options, stats, sim,
                    scratch);
  });
}
BENCHMARK(BM_NnSearch)->Arg(0)->Arg(1);  // The per-(r, S) choice.

void BM_HistogramRecord(benchmark::State& state) {
  // The per-request hot path of the bench runner: one Record per served
  // request, values spread across the log-linear decades.
  Rng rng(9);
  bench::LatencyHistogram hist;
  for (auto _ : state) {
    hist.Record(rng.Next() >> (rng.Next() & 31));
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  Rng rng(10);
  bench::LatencyHistogram hist;
  for (int i = 0; i < state.range(0); ++i) {
    hist.Record(rng.Next() >> (rng.Next() & 31));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Percentile(99));
  }
}
BENCHMARK(BM_HistogramPercentile)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace silkmoth
