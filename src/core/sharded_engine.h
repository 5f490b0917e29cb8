#ifndef SILKMOTH_CORE_SHARDED_ENGINE_H_
#define SILKMOTH_CORE_SHARDED_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "core/reference_block.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace silkmoth {

/// The canonical shard partition: splits [0, data.NumSets()) into
/// `num_shards` contiguous, cost-balanced ranges (trailing shards may be
/// empty). The SilkMoth engine and the snapshot builder both use this, so
/// shard k of a snapshot covers exactly the same set-id range as shard k of
/// an in-process run with the same shard count — the invariant the
/// cross-process merge parity rests on. num_shards must be >= 1; one shard
/// is {0, NumSets()} without any cost pass.
///
/// Balancing: contiguous-equal-count ranges inherit insertion-order skew
/// (one hot shard on near-duplicate-clustered corpora makes the slowest
/// worker the wall clock), so the partition instead balances a per-set
/// *cost proxy* — Σ over the set's element tokens of the token's global
/// posting count, i.e. the candidate postings a probe of that set touches.
/// When the proxy degenerates to all-zero (token-free corpus) it falls back
/// to element counts, then to one unit per set (the uniform split). Ranges
/// are assigned by deterministic greedy prefix balancing: shard s takes
/// sets until its cost reaches remaining_cost / remaining_shards, taking
/// the boundary set only when that overshoots less than stopping
/// undershoots. Ranges stay contiguous and ascending, so the byte-identity
/// merge protocol is untouched.
std::vector<SetIdRange> ComputeShardRanges(const Collection& data,
                                           uint32_t num_shards);

/// Builds one CSR index per range over `collection`, with up to
/// `num_threads` parallel builders (each builder only reads the immutable
/// collection and writes its own slots). The shared index-construction step
/// of the SilkMoth engine and the snapshot builder.
std::vector<InvertedIndex> BuildShardIndexes(
    const Collection& collection, const std::vector<SetIdRange>& ranges,
    int num_threads);

/// One shard of a candidate universe as seen by DiscoverAcrossShards:
/// a set-id range plus the index built over it (not owned).
struct ShardView {
  SetIdRange range;                      ///< Global set ids the shard owns.
  const InvertedIndex* index = nullptr;  ///< Index over `range` (borrowed).
};

/// The one discovery driver behind every execution mode — the in-process
/// SilkMoth engine, the out-of-process shard runner, the serve daemon and
/// the delta replay all call it, so the parity-critical loop (self-pair
/// exclusion, unordered-pair dedup, worker chunking, stats discipline,
/// canonical sort) cannot drift between them.
///
/// Streams every reference of `block` through every shard in `shards`:
/// up to options.num_threads workers each take a contiguous slice of the
/// block with one QueryScratch per (worker, shard). For self-join blocks,
/// block.refs must be `data` itself; self-pairs are excluded and symmetric
/// metrics report each unordered pair once (ref_id < set_id). External
/// blocks evaluate every (query, candidate) pair — no exclusion, no dedup —
/// and additionally stamp the query_sets/oov_tokens counters on every
/// non-empty shard slot. Empty shards are skipped entirely — zero passes,
/// zero stats. `stats`, when non-null, must have per_shard.size() ==
/// shards.size(); slot i aggregates every pass against shards[i]. Returns
/// the canonical (ref_id, set_id)-sorted stream.
std::vector<PairMatch> DiscoverAcrossShards(const ReferenceBlock& block,
                                            const Collection& data,
                                            std::span<const ShardView> shards,
                                            const Options& options,
                                            ShardedSearchStats* stats);

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_SHARDED_ENGINE_H_
