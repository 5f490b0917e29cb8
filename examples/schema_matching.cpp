// Schema matching (the paper's WEBTABLE application, Section 8.1).
//
// Each web table's schema is a set; each attribute (column) is an element
// whose tokens are the column's values. Two schemas are related when their
// attributes align under the maximum matching — robust to renamed columns
// and partially overlapping value pools. Demonstrates the effect of the
// element-similarity threshold α on both result quality and speed.
//
// Usage: schema_matching [num_tables] [delta]

#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "datagen/webtable.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace silkmoth;

  const size_t num_tables =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 1500;
  const double delta = argc > 2 ? std::atof(argv[2]) : 0.7;

  WebTableParams params = SchemaMatchingDefaults(num_tables);
  Collection data = BuildCollection(GenerateSchemaSets(params),
                                    TokenizerKind::kWord);

  std::printf("schema matching: %zu tables, delta=%.2f\n", num_tables,
              delta);
  std::printf("%-6s %-10s %-10s %-12s %-8s\n", "alpha", "time(s)",
              "pairs", "candidates", "verified");

  // The α sweep of Table 3's schema matching row: higher α prunes weak
  // attribute alignments and speeds everything up.
  for (double alpha : {0.0, 0.25, 0.5, 0.75}) {
    Options options;
    options.metric = Relatedness::kSimilarity;
    options.phi = SimilarityKind::kJaccard;
    options.delta = delta;
    options.alpha = alpha;
    SilkMoth engine(&data, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
      return 1;
    }
    WallTimer timer;
    ShardedSearchStats stats;
    auto pairs = engine.DiscoverSelf(&stats);
    const SearchStats funnel = stats.Total();
    std::printf("%-6.2f %-10.3f %-10zu %-12zu %-8zu\n", alpha,
                timer.ElapsedSeconds(), pairs.size(),
                funnel.initial_candidates, funnel.verifications);
  }
  return 0;
}
