#include "core/sharded_engine.h"

#include <algorithm>

#include "util/parallel.h"

namespace silkmoth {

std::vector<SetIdRange> ComputeShardRanges(const Collection& data,
                                           uint32_t num_shards) {
  const uint32_t num_sets = static_cast<uint32_t>(data.sets.size());
  // One shard is the whole collection; the greedy loop below would return
  // the same range after paying for the cost passes.
  if (num_shards == 1) return {SetIdRange{0, num_sets}};

  // Per-set cost proxy: Σ over the set's element tokens of that token's
  // global occurrence count — the number of candidate postings a signature
  // probe of this set touches, which tracks the verification fan-out far
  // better than the set count does on skewed corpora.
  std::vector<uint64_t> freq;
  for (const SetRecord& set : data.sets) {
    for (const Element& e : set.elements) {
      for (TokenId t : e.tokens) {
        if (static_cast<size_t>(t) >= freq.size()) {
          freq.resize(static_cast<size_t>(t) + 1, 0);
        }
        ++freq[t];
      }
    }
  }
  std::vector<uint64_t> cost(num_sets, 0);
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_sets; ++s) {
    for (const Element& e : data.sets[s].elements) {
      for (TokenId t : e.tokens) cost[s] += freq[t];
    }
    total += cost[s];
  }
  if (total == 0) {  // Token-free corpus: fall back to element counts.
    for (uint32_t s = 0; s < num_sets; ++s) {
      cost[s] = data.sets[s].elements.size();
      total += cost[s];
    }
  }
  if (total == 0) {  // Still degenerate: one unit per set (uniform split).
    cost.assign(num_sets, 1);
    total = num_sets;
  }

  // Greedy prefix balancing: each shard aims at an equal share of the
  // remaining cost. The boundary set joins the current shard only when
  // taking it overshoots the target by less than stopping undershoots;
  // a non-empty shard always takes at least one set while sets remain, so
  // only trailing shards can be empty (shards > sets stays legal).
  std::vector<SetIdRange> ranges(num_shards);
  uint64_t remaining = total;
  uint32_t cursor = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    ranges[s].begin = cursor;
    if (s + 1 == num_shards) {
      cursor = num_sets;  // Last shard sweeps up the remainder.
    } else {
      const uint64_t target = remaining / (num_shards - s);
      uint64_t acc = 0;
      while (cursor < num_sets) {
        const uint64_t c = cost[cursor];
        // A shard that reached its target stops before the next set; a
        // shard still short of it takes the crossing set only when the
        // overshoot is no worse than the undershoot of stopping. The
        // acc >= target test must come first: it keeps the undershoot
        // subtraction from wrapping after a boundary set was taken.
        if (acc > 0 &&
            (acc >= target || (acc + c > target &&
                               acc + c - target > target - acc))) {
          break;
        }
        acc += c;
        ++cursor;
      }
      remaining -= acc;
    }
    ranges[s].end = cursor;
  }
  return ranges;
}

std::vector<InvertedIndex> BuildShardIndexes(
    const Collection& collection, const std::vector<SetIdRange>& ranges,
    int num_threads) {
  const size_t num_shards = ranges.size();
  std::vector<InvertedIndex> indexes(num_shards);
  // Builders take contiguous shard chunks, capped by num_threads so index
  // construction honors the same budget as queries.
  const size_t builders =
      std::min(num_shards, static_cast<size_t>(std::max(1, num_threads)));
  RunWorkers(builders, [&](size_t b) {
    const auto [first, last] = Chunk(num_shards, builders, b);
    for (size_t s = first; s < last; ++s) {
      indexes[s].Build(collection, ranges[s].begin, ranges[s].end);
    }
  });
  return indexes;
}

std::vector<PairMatch> DiscoverAcrossShards(const ReferenceBlock& block,
                                            const Collection& data,
                                            std::span<const ShardView> shards,
                                            const Options& options,
                                            ShardedSearchStats* stats) {
  const Collection& refs = *block.refs;
  const bool self_join = block.self_join;
  const uint32_t num_refs = block.NumRefs();
  const size_t num_shards = shards.size();
  const size_t threads = static_cast<size_t>(std::max(
      1, std::min<int>(options.num_threads,
                       static_cast<int>(num_refs == 0 ? 1 : num_refs))));

  // A SET-SIMILARITY self-join reports each unordered pair once (keeping
  // ref_id < set_id); SET-CONTAINMENT is asymmetric, so both directions
  // are evaluated.
  const bool dedup_pairs =
      self_join && options.metric == Relatedness::kSimilarity;

  // Each worker streams its contiguous chunk of the block through every
  // shard in shard order into private results and counters, on its
  // thread's one scratch: shard passes share no other transient state,
  // which is the layout the multi-process split (snapshot/shard_runner.h)
  // inherits — each shard worker becomes a process running this very
  // function over a single-shard span. Passing the self-join exclude id to
  // every shard is harmless — only the shard owning the reference can ever
  // see it as a candidate.
  std::vector<std::vector<PairMatch>> partial(threads);
  std::vector<ShardedSearchStats> partial_stats(threads);
  RunWorkers(threads, [&](size_t t) {
    const auto [begin, end] = Chunk(num_refs, threads, t);
    ShardedSearchStats* st = stats != nullptr ? &partial_stats[t] : nullptr;
    if (st != nullptr) st->Reset(num_shards);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t r = block.begin_id() + static_cast<uint32_t>(i);
      const uint32_t exclude = self_join ? r : kNoExclude;
      for (size_t s = 0; s < num_shards; ++s) {
        const ShardView& shard = shards[s];
        if (shard.range.begin == shard.range.end) continue;  // Empty shard.
        const std::vector<SearchMatch> matches = RunSearchPass(
            refs.sets[r], data, *shard.index, options, exclude,
            st != nullptr ? &st->per_shard[s] : nullptr, /*scratch=*/nullptr,
            shard.range);
        for (const SearchMatch& m : matches) {
          if (dedup_pairs && m.set_id < r) continue;
          partial[t].push_back(PairMatch{r, m.set_id, m.matching_score,
                                         m.relatedness});
        }
      }
    }
  });
  std::vector<PairMatch> results = std::move(partial[0]);
  for (size_t t = 1; t < threads; ++t) {
    results.insert(results.end(), partial[t].begin(), partial[t].end());
  }
  if (stats != nullptr) {
    for (const ShardedSearchStats& st : partial_stats) stats->Merge(st);
  }

  // External blocks record the query-side accounting on every shard slot
  // the block actually streamed through (empty shards stay untouched, like
  // every other counter). Done once here, after the worker merge, so the
  // values are block-sized, not per-worker fragments.
  if (stats != nullptr && !self_join) {
    for (size_t s = 0; s < num_shards; ++s) {
      if (shards[s].range.begin == shards[s].range.end) continue;
      stats->per_shard[s].query_sets += num_refs;
      stats->per_shard[s].oov_tokens += block.oov_tokens;
    }
  }

  // Deterministic merge: worker blocks and shard ranges are both processed
  // in order, so the canonical sort makes the output independent of thread
  // and shard counts.
  std::sort(results.begin(), results.end(), PairMatchIdLess);
  return results;
}

}  // namespace silkmoth
