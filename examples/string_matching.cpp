// Approximate string matching (the paper's DBLP application, Section 8.1).
//
// Generates a corpus of publication-style titles containing planted
// near-duplicates, then runs RELATED SET DISCOVERY under SET-SIMILARITY
// with edit similarity (Eds): each title is a set, each word an element,
// each q-gram a token. Prints the discovered near-duplicate title pairs.
//
// Usage: string_matching [num_titles] [delta] [alpha]

#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "datagen/dblp.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace silkmoth;

  const size_t num_titles =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 400;
  Options options;
  options.metric = Relatedness::kSimilarity;
  options.phi = SimilarityKind::kEds;
  options.delta = argc > 2 ? std::atof(argv[2]) : 0.7;
  options.alpha = argc > 3 ? std::atof(argv[3]) : 0.8;

  DblpParams params;
  params.num_titles = num_titles;
  params.duplicate_rate = 0.15;
  params.typo_rate = 0.15;
  const std::vector<std::string> titles = GenerateDblpTitles(params);
  Collection data = BuildCollection(GenerateDblpSets(params),
                                    TokenizerKind::kQGram,
                                    options.EffectiveQ());

  SilkMoth engine(&data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
    return 1;
  }

  std::printf("string matching: %zu titles, delta=%.2f alpha=%.2f q=%d\n",
              num_titles, options.delta, options.alpha,
              options.EffectiveQ());
  WallTimer timer;
  ShardedSearchStats stats;
  auto pairs = engine.DiscoverSelf(&stats);
  const SearchStats funnel = stats.Total();
  std::printf("found %zu related title pairs in %.3fs "
              "(%zu candidates, %zu verified)\n\n",
              pairs.size(), timer.ElapsedSeconds(), funnel.initial_candidates,
              funnel.verifications);

  const size_t show = pairs.size() < 10 ? pairs.size() : 10;
  for (size_t i = 0; i < show; ++i) {
    std::printf("%.3f  \"%s\"\n       \"%s\"\n", pairs[i].relatedness,
                titles[pairs[i].ref_id].c_str(),
                titles[pairs[i].set_id].c_str());
  }
  if (pairs.size() > show) {
    std::printf("... and %zu more\n", pairs.size() - show);
  }
  return 0;
}
