#ifndef SILKMOTH_CORE_STATS_H_
#define SILKMOTH_CORE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "filter/check_filter.h"
#include "filter/nn_filter.h"

namespace silkmoth {

/// Aggregate statistics for one or more search passes. Every counter is a
/// plain size_t; parallel discovery keeps one instance per worker and merges
/// at the end, so no atomics are needed.
struct SearchStats {
  size_t references = 0;          ///< Search passes executed.
  size_t fallback_scans = 0;      ///< Passes with no valid signature (§7.3).
  size_t signature_tokens = 0;    ///< Flattened probe tokens generated.
  size_t initial_candidates = 0;  ///< Sets touched by signature probes.
  size_t after_size = 0;          ///< Surviving the size bounds.
  size_t after_check = 0;         ///< Surviving the check filter.
  size_t after_nn = 0;            ///< Surviving the NN filter.
  size_t verifications = 0;       ///< Maximum matchings computed.
  size_t results = 0;             ///< Related pairs found.
  size_t similarity_calls = 0;    ///< φ evaluations (filters + verification).
  size_t reduced_pairs = 0;       ///< Identical pairs removed in verification.
  size_t bound_accepts = 0;       ///< Verifications decided without the
                                  ///< solver: by the greedy lower bound, or
                                  ///< trivially (both sides fully consumed
                                  ///< by reduction). For greedy-decided
                                  ///< accepts the search pass still runs
                                  ///< one solve on the ready matrix to
                                  ///< report the pair's exact score;
                                  ///< trivial ones are already exact.
  size_t bound_rejects = 0;       ///< Verifications settled by the maxima
                                  ///< upper bound (no Hungarian run at all).
  size_t tier2_accepts = 0;       ///< Verifications accepted by the tier-2
                                  ///< local-max matching bound after the
                                  ///< greedy bound failed to settle.
  size_t heap_floor_rejects = 0;  ///< Top-k candidates dropped because their
                                  ///< upper bound fell below the running
                                  ///< k-th-best score (no bound or solve
                                  ///< ran); always 0 outside top-k search.
  size_t exact_solves = 0;        ///< Hungarian runs in the ambiguous band
                                  ///< lower < θ <= upper.
  size_t reporting_solves = 0;    ///< Hungarian runs made purely to report
                                  ///< an exact score on a bound-settled
                                  ///< accept (the decision was the bound's).
  size_t bound_only_scores = 0;   ///< Pairs reported with the greedy lower
                                  ///< bound instead of an exact score
                                  ///< (Options::exact_scores == false;
                                  ///< always 0 otherwise).
  size_t query_sets = 0;          ///< External (query-vs-corpus) reference
                                  ///< sets streamed; 0 for self-joins. Like
                                  ///< `references`, counted per index
                                  ///< streamed through, so sharded totals
                                  ///< sum to (query sets × non-empty
                                  ///< shards). See docs/COUNTERS.md.
  size_t oov_tokens = 0;          ///< Distinct query tokens absent from the
                                  ///< corpus dictionary (query mode only;
                                  ///< stamped per shard slot streamed).

  double signature_seconds = 0.0;  ///< Signature generation wall clock.
  double selection_seconds = 0.0;  ///< Candidate selection + check filter.
  double nn_seconds = 0.0;         ///< NN-filter wall clock.
  double verify_seconds = 0.0;     ///< Verification (incl. reporting solves).

  /// Merges `other` into this.
  void Merge(const SearchStats& other);

  /// Multi-line human-readable dump.
  std::string ToString() const;

  /// One JSON object with every counter and phase timer — the funnel block
  /// embedded in the orchestrator's run report (docs/CLI.md, "Run report").
  std::string ToJson() const;

  /// ToJson minus the four *_seconds phase timers: the deterministic subset.
  /// BENCH_*.json embeds this as its "funnel" object so the whole file
  /// outside the "timing" key is reproducible bit for bit; the timers move
  /// under "timing" instead.
  std::string CountersJson() const;
};

/// One SearchStats counter: its name in every dump and its member.
struct CounterField {
  const char* name;               ///< Dump/JSON/shard-result key.
  size_t SearchStats::* member;   ///< The counter.
};

/// One SearchStats phase timer: its name in every dump and its member.
struct SecondsField {
  const char* name;               ///< Dump/JSON/shard-result key.
  double SearchStats::* member;   ///< The timer.
};

/// Every SearchStats counter, in dump order. The one list that Merge,
/// ToString, the JSON emitters, the shard-result reader/writer and the
/// parity tests iterate: a new counter is declared above and added here.
inline constexpr CounterField kSearchCounters[] = {
    {"references", &SearchStats::references},
    {"fallback_scans", &SearchStats::fallback_scans},
    {"signature_tokens", &SearchStats::signature_tokens},
    {"initial_candidates", &SearchStats::initial_candidates},
    {"after_size", &SearchStats::after_size},
    {"after_check", &SearchStats::after_check},
    {"after_nn", &SearchStats::after_nn},
    {"verifications", &SearchStats::verifications},
    {"results", &SearchStats::results},
    {"similarity_calls", &SearchStats::similarity_calls},
    {"reduced_pairs", &SearchStats::reduced_pairs},
    {"bound_accepts", &SearchStats::bound_accepts},
    {"bound_rejects", &SearchStats::bound_rejects},
    {"tier2_accepts", &SearchStats::tier2_accepts},
    {"heap_floor_rejects", &SearchStats::heap_floor_rejects},
    {"exact_solves", &SearchStats::exact_solves},
    {"reporting_solves", &SearchStats::reporting_solves},
    {"bound_only_scores", &SearchStats::bound_only_scores},
    {"query_sets", &SearchStats::query_sets},
    {"oov_tokens", &SearchStats::oov_tokens},
};

/// Every SearchStats phase timer, in dump order (after the counters).
inline constexpr SecondsField kSearchSeconds[] = {
    {"signature_seconds", &SearchStats::signature_seconds},
    {"selection_seconds", &SearchStats::selection_seconds},
    {"nn_seconds", &SearchStats::nn_seconds},
    {"verify_seconds", &SearchStats::verify_seconds},
};

/// Statistics for a SilkMoth run: one SearchStats per shard plus a derived
/// global view. A single-index engine (num_shards == 1) fills one slot;
/// read it through Total().
///
/// Each shard's slot aggregates every search pass that ran against that
/// shard's index, across all worker threads (workers keep private copies and
/// the engine merges them slot-wise at the end, so no atomics are needed).
///
/// Counter semantics shift under sharding: a single reference is streamed
/// through *every* shard, so `per_shard[s].references` counts references
/// streamed through shard s, and Total().references sums to
/// (references × shards), not the reference count. Candidate/verification/
/// result counters do not double-count — each shard only ever sees its own
/// set-id range — so their totals match an unsharded run exactly. See
/// docs/COUNTERS.md for the full reading guide.
struct ShardedSearchStats {
  std::vector<SearchStats> per_shard;  ///< Indexed by shard id.

  /// Sets the shard count, clearing all counters.
  void Reset(size_t num_shards);

  /// Slot-wise merge. If `other` has more shards, this grows to match
  /// (missing slots count as zero) — counters are never dropped.
  void Merge(const ShardedSearchStats& other);

  /// Global view: all shards merged into one SearchStats.
  SearchStats Total() const;

  /// Global dump followed by a compact per-shard funnel table.
  std::string ToString() const;
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_STATS_H_
