#ifndef SILKMOTH_BENCH_RUNNER_H_
#define SILKMOTH_BENCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench/histogram.h"
#include "bench/workload.h"
#include "core/stats.h"

namespace silkmoth::bench {

/// Everything one workload run produces. Fields split into two groups, and
/// the BENCH_<name>.json emitter (bench/bench_json.h) keeps them apart:
///
///  - **deterministic** fields depend only on (spec, seeds): corpus shape,
///    the request-stream hash, pairs per round, and the funnel counters of
///    exactly one full pass over the request stream. Two same-spec runs —
///    any worker count, any machine — produce identical values; the
///    contract test diffs them.
///  - **timing** fields (wall clock, throughput, the latency histogram,
///    peak RSS, completed request counts) vary run to run; the JSON nests
///    them all under one "timing" object so they strip mechanically.
struct BenchResult {
  WorkloadSpec spec;  ///< The spec actually run (after CLI overrides).

  // Deterministic.
  size_t corpus_sets = 0;      ///< Sets in the synthesized corpus.
  size_t corpus_elements = 0;  ///< Elements across all sets.
  size_t corpus_tokens = 0;    ///< Distinct tokens in the dictionary
                               ///< (before the request pool interned).
  uint64_t request_stream_hash = 0;  ///< HashRequestStream of the stream.
  size_t pool_oov_tokens = 0;  ///< OOV tokens of the request pool (0: the
                               ///< pool is drawn from the corpus itself).
  size_t pairs_per_round = 0;  ///< Related pairs one full pass reports.
  ShardedSearchStats funnel;   ///< Funnel counters of one full pass (round
                               ///< 0); later sustained rounds repeat the
                               ///< identical work uncounted. Dynamic-corpus
                               ///< specs carry one extra trailing slot: the
                               ///< delta shard.

  // Deterministic, dynamic-corpus lane only (spec.delta_sets > 0; all zero
  // otherwise). The ingested-set count, the distinct tokens the ingest
  // interned that the base dictionary lacked, and the pairs one full
  // uncounted pass over the base shards alone reports — what the stream
  // answered before the delta arrived.
  size_t delta_sets = 0;         ///< Sets the timed ingest appended.
  size_t delta_oov_tokens = 0;   ///< Tokens the ingest interned as new.
  size_t pairs_pre_ingest = 0;   ///< Pairs of the base-only pass.

  // Timing.
  double build_seconds = 0.0;      ///< Corpus synth + tokenize + index.
  double ingest_seconds = 0.0;     ///< The timed delta ingest (delta lane).
  double pre_ingest_seconds = 0.0; ///< The base-only pass (delta lane).
  double run_seconds = 0.0;        ///< Request-serving wall clock.
  size_t completed_requests = 0;   ///< All rounds, all workers.
  double requests_per_second = 0;  ///< completed_requests / run_seconds.
  LatencyHistogram latency;        ///< Per-request latency, nanoseconds.
  uint64_t peak_rss_bytes = 0;     ///< ru_maxrss at the end of the run.

  // Serve-lane counters (specs with serve == true; all zero otherwise).
  // Admitted/served scale with the nondeterministic sustained round count,
  // so they live in the timing group. A bench run sizes admission so
  // nothing sheds and no deadline fires — nonzero shed/deadline/fault
  // counters in a report mean the run itself misbehaved.
  uint64_t serve_requests_admitted = 0;  ///< Queries past admission.
  uint64_t serve_requests_shed = 0;      ///< OVERLOADED responses.
  uint64_t serve_requests_served = 0;    ///< Worker-produced responses.
  uint64_t serve_deadline_exceeded = 0;  ///< Partial-coverage responses.
  uint64_t serve_worker_faults = 0;      ///< Injected worker failures.
};

/// Runs `spec` end to end: synthesize the corpus, build the engine,
/// generate the request stream, drive it closed-loop or sustained with
/// spec.workers client threads, and fill `*out`. Returns "" on success or a
/// human-readable error (invalid options, empty corpus).
///
/// Execution contract: requests are external ReferenceBlocks served through
/// SilkMoth::Discover — the same DiscoverAcrossShards driver every other
/// discovery mode uses — each request single-threaded
/// (options.num_threads is forced to 1), concurrency supplied by `workers`
/// closed-loop clients over disjoint slices of the pre-generated stream.
/// Specs with `top_k > 0` serve each reference through
/// SilkMoth::SearchTopK instead (the floating-floor pass; requires
/// num_shards == 1) with the same slicing and round-0 counting rules.
/// Specs with `serve == true` drive an in-process serve::ServeEngine over
/// its frame protocol instead: the corpus is packed into a Snapshot, each
/// request is a WriteRawSets payload submitted as a kQuery frame, and the
/// closed-loop clients block on the response — so the measured path is
/// admission + worker lanes + per-request tokenization, exactly what the
/// `serve` subcommand runs. Round 0 is a barriered full pass (funnel
/// snapshot taken before any sustained re-issue), keeping the same
/// deterministic-field contract as the direct lanes.
/// Specs with `delta_sets > 0` run the dynamic-corpus lane: the base
/// engine indexes all but the last delta_sets corpus sets, a single
/// uncounted pass over the base shards records pairs_pre_ingest, the
/// withheld tail is then ingested through one timed DeltaShard batch, and
/// the counted round 0 (plus any sustained rounds) streams through base
/// shards + the delta view — so the funnel gains one trailing delta slot
/// and the deterministic fields match a from-scratch build of the full
/// corpus by the delta parity contract (tests/delta_parity_property_test).
std::string RunWorkload(const WorkloadSpec& spec, BenchResult* out);

/// Current process peak RSS in bytes (getrusage), 0 where unsupported.
uint64_t PeakRssBytes();

}  // namespace silkmoth::bench

#endif  // SILKMOTH_BENCH_RUNNER_H_
