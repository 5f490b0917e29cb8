// Quickstart: the paper's Table 1/2 scenario in ~60 lines.
//
// Builds a tiny collection of address columns, then runs RELATED SET SEARCH
// under SET-CONTAINMENT with Jaccard element similarity, exactly like
// Example 2 of the paper: with δ = 0.7 the reference "Location" column is
// contained in exactly one candidate.

#include <cstdio>

#include "core/brute_force.h"
#include "core/engine.h"
#include "datagen/builders.h"

int main() {
  using namespace silkmoth;

  // The dataset: four columns of address-like strings (Table 2's S1..S4,
  // spelled with real tokens).
  RawSets raw = {
      {"Mass Ave St Boston 02115", "77 Mass 5th St Boston",
       "77 Mass Ave 5th 02115"},
      {"77 Boston MA", "77 5th St Boston 02115", "77 Mass Ave 02115 Seattle"},
      {"77 Mass Ave 5th Boston MA", "Mass Ave Chicago IL", "77 Mass Ave St"},
      {"77 Mass Ave MA", "5th St 02115 Seattle WA", "77 5th St Boston Seattle"},
  };
  Collection data = BuildCollection(raw, TokenizerKind::kWord);

  // The reference set: the Location column of Table 1/2.
  SetRecord location = BuildReference(
      {"77 Mass Ave Boston MA", "5th St 02115 Seattle WA",
       "77 5th St Chicago IL"},
      TokenizerKind::kWord, /*q=*/0, &data);

  Options options;
  options.metric = Relatedness::kContainment;
  options.phi = SimilarityKind::kJaccard;
  options.delta = 0.7;

  SilkMoth engine(&data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
    return 1;
  }

  ShardedSearchStats stats;
  auto matches = engine.Search(location, &stats);
  const SearchStats funnel = stats.Total();

  std::printf("SET-CONTAINMENT search, delta=%.2f\n", options.delta);
  std::printf("candidates touched: %zu, verified: %zu\n",
              funnel.initial_candidates, funnel.verifications);
  for (const auto& m : matches) {
    std::printf("  related set S%u: matching=%.3f containment=%.3f\n",
                m.set_id + 1, m.matching_score, m.relatedness);
  }

  // SilkMoth is exact: the brute-force scan returns the same answer.
  BruteForce oracle(&data, options);
  auto expected = oracle.Search(location);
  std::printf("brute force agrees: %s\n",
              matches == expected ? "yes" : "NO (bug!)");
  return matches == expected ? 0 : 1;
}
