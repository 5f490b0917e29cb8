#ifndef SILKMOTH_BENCH_BENCH_COMMON_H_
#define SILKMOTH_BENCH_BENCH_COMMON_H_

// Shared workload builders for the figure/table reproduction binaries.
//
// The three applications mirror Table 3 of the paper. Dataset sizes are
// laptop-scale by default; set SILKMOTH_BENCH_SCALE (e.g. =10) to scale the
// set counts up toward the paper's sizes. Absolute times will differ from
// the paper (different hardware, synthetic data); the *shapes* — who wins,
// by roughly what factor, where the curves bend — are what these binaries
// reproduce. See EXPERIMENTS.md.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "core/options.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "util/env.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace silkmoth::bench {

inline size_t Scaled(size_t base) {
  const double scale = BenchScale();
  const double v = static_cast<double>(base) * (scale <= 0 ? 1.0 : scale);
  return static_cast<size_t>(v);
}

/// One benchmark workload: the indexed collection, optional reference sets
/// (search mode), and the base Options.
struct Workload {
  std::string name;
  Collection data;
  std::vector<SetRecord> references;  ///< Empty => discovery mode (R = S).
  Options options;
};

/// Approximate String Matching (Table 3 row 1): DBLP-style titles, Eds,
/// RELATED SET DISCOVERY under SET-SIMILARITY.
inline Workload StringMatchingWorkload(size_t num_sets, double delta = 0.7,
                                       double alpha = 0.8) {
  Workload w;
  w.name = "String Matching";
  w.options.metric = Relatedness::kSimilarity;
  w.options.phi = SimilarityKind::kEds;
  w.options.delta = delta;
  w.options.alpha = alpha;
  // The corpus shape is owned by the workload registry (src/bench) so the
  // figure benches and the named `bench` workloads measure identical data.
  w.data =
      BuildCollection(GenerateCorpusRaw(CorpusKind::kDblpTitles, num_sets,
                                        /*seed=*/42),
                      TokenizerKind::kQGram, w.options.EffectiveQ());
  return w;
}

/// Schema Matching (Table 3 row 2): web-table schema sets, Jaccard,
/// RELATED SET DISCOVERY under SET-SIMILARITY.
inline Workload SchemaMatchingWorkload(size_t num_sets, double delta = 0.7,
                                       double alpha = 0.0) {
  Workload w;
  w.name = "Schema Matching";
  w.options.metric = Relatedness::kSimilarity;
  w.options.phi = SimilarityKind::kJaccard;
  w.options.delta = delta;
  w.options.alpha = alpha;
  w.data = BuildCollection(GenerateCorpusRaw(CorpusKind::kSchemaSets,
                                             num_sets, /*seed=*/7),
                           TokenizerKind::kWord);
  return w;
}

/// Approximate Inclusion Dependency (Table 3 row 3): web-table column sets,
/// Jaccard, RELATED SET SEARCH under SET-CONTAINMENT.
inline Workload InclusionDependencyWorkload(size_t num_sets, size_t num_refs,
                                            double delta = 0.7,
                                            double alpha = 0.5,
                                            size_t min_elements = 14,
                                            size_t max_elements = 30) {
  Workload w;
  w.name = "Inclusion Dependency";
  w.options.metric = Relatedness::kContainment;
  w.options.phi = SimilarityKind::kJaccard;
  w.options.delta = delta;
  w.options.alpha = alpha;
  RawSets raw;
  if (min_elements == 14 && max_elements == 30) {
    // The registry's canonical column shape (src/bench/workload.cc).
    raw = GenerateCorpusRaw(CorpusKind::kColumnSets, num_sets, /*seed=*/11);
  } else {
    // Custom element sizes (fig7's large-column setup) stay local.
    WebTableParams p = InclusionDependencyDefaults(num_sets, /*seed=*/11);
    p.min_elements = min_elements;
    p.max_elements = max_elements;
    raw = GenerateColumnSets(p);
  }
  w.data = BuildCollection(raw, TokenizerKind::kWord);
  // References: every k-th column with more than 4 distinct elements (the
  // paper's anti-categorical rule), up to num_refs.
  const size_t stride = std::max<size_t>(1, w.data.sets.size() / num_refs);
  for (size_t s = 0; s < w.data.sets.size() && w.references.size() < num_refs;
       s += stride) {
    if (w.data.sets[s].Size() > 4) w.references.push_back(w.data.sets[s]);
  }
  return w;
}

/// Result of one timed engine run.
struct RunResult {
  double seconds = 0.0;
  size_t results = 0;
  SearchStats stats;
};

/// Runs SilkMoth on the workload (discovery or search per `references`).
inline RunResult RunSilkMoth(const Workload& w) {
  RunResult r;
  SilkMoth engine(&w.data, w.options);
  if (!engine.ok()) {
    std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
    return r;
  }
  WallTimer timer;
  ShardedSearchStats stats;
  if (w.references.empty()) {
    r.results = engine.DiscoverSelf(&stats).size();
  } else {
    for (const SetRecord& ref : w.references) {
      r.results += engine.Search(ref, &stats).size();
    }
  }
  r.seconds = timer.ElapsedSeconds();
  r.stats = stats.Total();
  return r;
}

/// Runs the brute-force baseline (Figure 4's NOOPT).
inline RunResult RunBruteForce(const Workload& w) {
  RunResult r;
  BruteForce oracle(&w.data, w.options);
  WallTimer timer;
  if (w.references.empty()) {
    r.results = oracle.DiscoverSelf().size();
  } else {
    for (const SetRecord& ref : w.references) {
      r.results += oracle.Search(ref).size();
    }
  }
  r.seconds = timer.ElapsedSeconds();
  return r;
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("=== %s: %s ===\n", figure, what);
  std::printf("(scale=%.1f; set SILKMOTH_BENCH_SCALE to grow datasets; "
              "shapes, not absolute times, are the reproduction target)\n\n",
              BenchScale());
}

}  // namespace silkmoth::bench

#endif  // SILKMOTH_BENCH_BENCH_COMMON_H_
