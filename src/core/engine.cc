#include "core/engine.h"

#include <cstdio>

#include "core/sharded_engine.h"

namespace silkmoth {
void AppendPairLine(std::string* out, const PairMatch& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id,
                p.matching_score, p.relatedness);
  *out += buf;
}

SilkMoth::SilkMoth(const Collection* data, Options options)
    : data_(data), options_(options) {
  error_ = options_.Validate();
  if (!error_.empty()) return;
  // Validate() has already rejected num_shards < 1.
  ranges_ = ComputeShardRanges(*data_,
                               static_cast<uint32_t>(options_.num_shards));
  indexes_ = BuildShardIndexes(*data_, ranges_, options_.num_threads);
}

const InvertedIndex& SilkMoth::index() const {
  static const InvertedIndex kNoIndex;
  return indexes_.empty() ? kNoIndex : indexes_.front();
}

void SilkMoth::PrepareStats(ShardedSearchStats* stats) const {
  if (stats != nullptr && stats->per_shard.size() != num_shards()) {
    stats->Reset(num_shards());
  }
}

std::vector<SearchMatch> SilkMoth::Search(const SetRecord& ref,
                                          ShardedSearchStats* stats) const {
  if (!ok()) return {};
  PrepareStats(stats);
  std::vector<SearchMatch> results;
  for (size_t s = 0; s < num_shards(); ++s) {
    if (ranges_[s].begin == ranges_[s].end) continue;  // Empty shard.
    std::vector<SearchMatch> matches = RunSearchPass(
        ref, *data_, indexes_[s], options_, kNoExclude,
        stats != nullptr ? &stats->per_shard[s] : nullptr,
        /*scratch=*/nullptr, ranges_[s]);
    // Shard ranges are disjoint and ascending and each shard's matches are
    // sorted by set id, so appending keeps the global set-id order.
    if (results.empty()) {
      results = std::move(matches);
    } else {
      results.insert(results.end(), matches.begin(), matches.end());
    }
  }
  return results;
}

std::vector<SearchMatch> SilkMoth::SearchTopK(const SetRecord& ref, size_t k,
                                              ShardedSearchStats* stats) const {
  if (!ok() || k == 0 || num_shards() > 1) return {};
  PrepareStats(stats);
  if (ranges_[0].begin == ranges_[0].end) return {};  // Empty collection.
  // The pass runs in top-k mode: it keeps a k-best heap during verification
  // and threads the heap's k-th-best score into the verifier as a floating
  // floor, so candidates whose upper bound cannot reach the current top k
  // are rejected without any matching solve. The returned matches are
  // already the exact top k, sorted best-first.
  return RunSearchPass(ref, *data_, indexes_[0], options_, kNoExclude,
                       stats != nullptr ? &stats->per_shard[0] : nullptr,
                       /*scratch=*/nullptr, ranges_[0], k);
}

std::vector<PairMatch> SilkMoth::Discover(const Collection& refs,
                                          ShardedSearchStats* stats) const {
  return Discover(ReferenceBlock::External(refs), stats);
}

std::vector<PairMatch> SilkMoth::DiscoverSelf(ShardedSearchStats* stats) const {
  return Discover(ReferenceBlock::SelfJoin(*data_), stats);
}

std::vector<PairMatch> SilkMoth::Discover(const ReferenceBlock& block,
                                          ShardedSearchStats* stats) const {
  if (!ok()) return {};
  PrepareStats(stats);
  std::vector<ShardView> views(num_shards());
  for (size_t s = 0; s < num_shards(); ++s) {
    views[s] = ShardView{ranges_[s], &indexes_[s]};
  }
  return DiscoverAcrossShards(block, *data_, views, options_, stats);
}

}  // namespace silkmoth
