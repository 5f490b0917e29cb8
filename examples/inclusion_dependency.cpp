// Approximate inclusion dependency discovery (Section 8.1's search
// application): given a reference column R, find all columns S in a corpus
// that approximately CONTAIN R — candidates for joinable columns.
//
// Each column is a set, each cell value an element, each whitespace word a
// token; SET-CONTAINMENT with Jaccard element similarity tolerates dirty
// values ("Fifth Street" vs "5th St").
//
// Usage: inclusion_dependency [num_columns] [delta]

#include <cstdio>
#include <cstdlib>

#include "core/brute_force.h"
#include "core/engine.h"
#include "datagen/webtable.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace silkmoth;

  const size_t num_columns =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 3000;
  Options options;
  options.metric = Relatedness::kContainment;
  options.phi = SimilarityKind::kJaccard;
  options.delta = argc > 2 ? std::atof(argv[2]) : 0.7;
  options.alpha = 0.5;

  WebTableParams params = InclusionDependencyDefaults(num_columns);
  Collection data = BuildCollection(GenerateColumnSets(params),
                                    TokenizerKind::kWord);
  SilkMoth engine(&data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
    return 1;
  }

  // Reference columns: the paper draws columns with > 4 distinct values (to
  // skip categorical columns). Take every 200th such column.
  std::vector<uint32_t> refs;
  for (uint32_t s = 0; s < data.sets.size() && refs.size() < 15; s += 200) {
    if (data.sets[s].Size() > 4) refs.push_back(s);
  }

  std::printf("inclusion dependency: %zu columns, %zu references, "
              "delta=%.2f alpha=%.2f\n\n",
              data.NumSets(), refs.size(), options.delta, options.alpha);

  WallTimer timer;
  size_t total = 0;
  ShardedSearchStats stats;
  for (uint32_t r : refs) {
    auto matches = engine.Search(data.sets[r], &stats);
    for (const auto& m : matches) {
      if (m.set_id != r) {
        ++total;
        if (total <= 8) {
          std::printf("column %u (%zu values) contained in column %u "
                      "(%zu values): containment %.3f\n",
                      r, data.sets[r].Size(), m.set_id,
                      data.sets[m.set_id].Size(), m.relatedness);
        }
      }
    }
  }
  const SearchStats funnel = stats.Total();
  std::printf("\n%zu joinable column pairs in %.3fs "
              "(%zu candidates -> %zu after filters -> %zu verified)\n",
              total, timer.ElapsedSeconds(), funnel.initial_candidates,
              funnel.after_nn, funnel.verifications);

  // Spot-check exactness against brute force on the first reference.
  if (!refs.empty()) {
    BruteForce oracle(&data, options);
    const bool agree =
        engine.Search(data.sets[refs[0]]) == oracle.Search(data.sets[refs[0]]);
    std::printf("brute-force agreement on reference %u: %s\n", refs[0],
                agree ? "yes" : "NO (bug!)");
    if (!agree) return 1;
  }
  return 0;
}
