#ifndef SILKMOTH_SNAPSHOT_SHARD_RUNNER_H_
#define SILKMOTH_SNAPSHOT_SHARD_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "core/reference_block.h"
#include "core/stats.h"
#include "snapshot/snapshot.h"

namespace silkmoth {

/// The out-of-process half of sharded discovery: run one snapshot shard's
/// slice of discovery — a self-join of the snapshot's own collection or an
/// external query block against it — persist the resulting PairMatch
/// stream, and k-way merge shard streams back into the exact single-process
/// output. Together with the snapshot container this is the process-level
/// protocol:
///
///   build      tokenize + index + SaveSnapshot             (one process)
///   shard-run  LoadSnapshot + DiscoverShardSelf(k)         (one per shard,
///              or DiscoverShardAgainst(k, query block)      any machine)
///              + SaveShardResult
///   merge      LoadShardResult × N + MergeShardResults     (one process)
///
/// MergeShardResults output is byte-identical (ids and exact scores) to the
/// matching in-process run on the same corpus and options —
/// SilkMoth::DiscoverSelf for self-joins, SilkMoth::Discover over the same
/// query block for query runs (same shard count) — enforced by
/// tests/snapshot_roundtrip_property_test.cc and tests/query_mode_test.cc
/// in memory and tests/cli_parity_test.sh through the real binary.

/// Runs shard `shard`'s slice of RELATED SET DISCOVERY within the snapshot's
/// own collection (R = S): every set is streamed as a reference through the
/// shard's index, with the same self-pair and unordered-pair semantics as
/// SilkMoth::DiscoverSelf. Results are sorted by (ref_id, set_id).
/// `options.num_threads` workers split the reference stream; `stats`
/// aggregates every pass against this shard (untouched for empty shards,
/// matching the in-process engine, which never runs passes against them).
/// Compatibility between `options` and the snapshot's tokenization is NOT
/// checked here — callers gate on CheckSnapshotCompatible first.
std::vector<PairMatch> DiscoverShardSelf(const Snapshot& snap, size_t shard,
                                         const Options& options,
                                         SearchStats* stats = nullptr);

/// Query-vs-corpus variant of DiscoverShardSelf: streams an *external*
/// reference block (block.self_join must be false; see BuildQueryBlock in
/// datagen/builders.h for constructing one against the snapshot's
/// dictionary) through shard `shard`'s index. Every (query set, candidate)
/// pair in the shard's range is evaluated — no self-pair exclusion, no
/// unordered-pair dedup. Results are sorted by (ref_id, set_id); ref_id
/// indexes the query collection. Concatenating the per-shard streams over
/// all shards is exactly SilkMoth::Discover on the same block. The
/// same CheckSnapshotCompatible gate applies — and the query must have been
/// tokenized against this snapshot's dictionary, or token ids silently
/// disagree.
std::vector<PairMatch> DiscoverShardAgainst(const Snapshot& snap,
                                            size_t shard,
                                            const ReferenceBlock& block,
                                            const Options& options,
                                            SearchStats* stats = nullptr);

/// Returns "" when `options` can run against `snap` (φ's tokenization and
/// effective q match what the snapshot was built with), else a one-line
/// error explaining the mismatch.
std::string CheckSnapshotCompatible(const Snapshot& snap,
                                    const Options& options);

/// One shard's persisted discovery output: the sorted PairMatch stream plus
/// the shard's SearchStats funnel. Scores round-trip exactly (%.17g).
///
/// `options` records the output-affecting query options the shard ran with
/// (metric, φ, δ, α, effective q, exact_scores) so merge can refuse to
/// combine shards run under different queries. Cost-only knobs (scheme,
/// filters, threads) are deliberately not recorded — they never change the
/// output, and shard workers may legitimately tune them independently.
///
/// `query_mode`/`query_hash` fingerprint the *reference payload* the same
/// way: a self-join stream and a query stream — or two query streams over
/// different payloads — must never merge, because the combined stream would
/// match no single-process run.
struct ShardResult {
  uint32_t shard = 0;            ///< Shard id this result came from.
  uint32_t num_shards = 0;       ///< Total shard count of the snapshot run.
  SetIdRange range;              ///< Global set-id range the shard covered
                                 ///< (from the snapshot's shard table) —
                                 ///< what a partial merge stamps as covered.
  Options options;               ///< Query options (output-affecting fields).
  bool query_mode = false;       ///< True when the references were an
                                 ///< external query block, false for the
                                 ///< snapshot's own self-join.
  uint64_t query_hash = 0;       ///< ReferenceBlock::content_hash of the
                                 ///< query payload (query_mode only; 0 for
                                 ///< self-joins).
  SearchStats stats;             ///< Funnel counters for this shard's passes.
  std::vector<PairMatch> pairs;  ///< Sorted by (ref_id, set_id).
};

/// Writes `result` to `path` (versioned text format, "end"-terminated so
/// truncation is detectable). Returns "" on success, else a one-line error.
std::string SaveShardResult(const ShardResult& result,
                            const std::string& path);

/// Loads a shard result from `path`. Returns "" on success, else a one-line
/// error; on failure `*out` is left untouched.
std::string LoadShardResult(const std::string& path, ShardResult* out);

/// Merge policy for MergeShardResults. The default is strict: every shard
/// of the run must be present. `allow_partial` is the orchestrator's
/// degraded mode — a merge over a subset of shards is permitted, but the
/// coverage record makes the gap explicit so partial results are never
/// passed off as complete.
struct MergeOptions {
  /// Permit merging a subset of shards (consistency checks still apply).
  bool allow_partial = false;
};

/// What a merge actually covered — filled by MergeShardResults so callers
/// (the `run`/`merge` subcommands, the run report) can stamp partial
/// output with its covered shard ranges instead of silently presenting a
/// subset as the full answer.
struct MergeCoverage {
  uint32_t num_shards = 0;     ///< Total shard count of the run.
  bool complete = true;        ///< True when every shard was present.
  std::vector<uint32_t> covered;        ///< Present shard ids, ascending.
  std::vector<SetIdRange> covered_ranges;  ///< Their set-id ranges,
                                           ///< parallel to `covered`.
  std::vector<uint32_t> missing;        ///< Absent shard ids, ascending.
};

/// Renders `cov` as the canonical partial-coverage stamp: "# partial
/// coverage", "# covered shards", "# covered set-id ranges", "# missing
/// shards" comment lines, ahead of whatever pair stream follows. The one
/// formatter behind the `run`/`merge` subcommands' stdout stamp and the
/// serve daemon's DEADLINE_EXCEEDED frame bodies, so the stamp grammar
/// cannot drift between the batch and serving paths.
std::string FormatCoverage(const MergeCoverage& cov);

/// K-way merges shard result streams into the canonical (ref_id, set_id)
/// order. The inputs must agree on num_shards, on the output-affecting
/// query options, AND on the reference payload (query_mode + query_hash),
/// and — unless `merge_options.allow_partial` — cover shard ids 0..N-1
/// exactly once each; anything else returns a one-line error (shards run
/// with, say, different --delta, or against different query files, would
/// merge into a stream that matches no single-process run). On success
/// fills `pairs` (exactly the in-process SilkMoth output restricted
/// to the covered shards), and, when non-null, `stats` (per_shard[k] =
/// shard k's funnel; absent shards stay zero) and `coverage` (which
/// shards/ranges the merge actually covered).
std::string MergeShardResults(const std::vector<ShardResult>& results,
                              std::vector<PairMatch>* pairs,
                              ShardedSearchStats* stats = nullptr,
                              const MergeOptions& merge_options = {},
                              MergeCoverage* coverage = nullptr);

}  // namespace silkmoth

#endif  // SILKMOTH_SNAPSHOT_SHARD_RUNNER_H_
