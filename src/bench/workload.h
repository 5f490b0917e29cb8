#ifndef SILKMOTH_BENCH_WORKLOAD_H_
#define SILKMOTH_BENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "datagen/builders.h"
#include "text/tokenizer.h"

namespace silkmoth::bench {

/// Corpus shapes the bench harness can synthesize — the same three Table-3
/// applications the figure benches reproduce (bench/bench_common.h delegates
/// its dataset construction here so the two stay in lockstep).
enum class CorpusKind {
  kDblpTitles,   ///< DBLP-style titles; q-gram tokens, edit similarity.
  kSchemaSets,   ///< Web-table schemas; word tokens, few long elements.
  kColumnSets,   ///< Web-table columns; word tokens, many short elements.
};

const char* CorpusKindName(CorpusKind kind);

/// How request reference sets are drawn from the corpus.
enum class QueryMix {
  kUniform,  ///< Every corpus set equally likely.
  kZipfian,  ///< Rank-r set drawn ∝ 1/(r+1)^skew — a hot-key serving mix.
             ///< Ranks map directly to set ids, so with contiguous shard
             ///< ranges the head of the distribution concentrates in the
             ///< low shards (the hot-shard shape, deliberately).
};

const char* QueryMixName(QueryMix mix);

/// Runner execution mode. The reading rules for the two modes' telemetry
/// differ — see docs/COUNTERS.md, "Bench telemetry".
enum class RunMode {
  kClosedLoop,  ///< Each worker issues its requests back to back, exactly
                ///< once; per-request latency under zero queueing.
  kSustained,   ///< The request stream is re-issued in whole rounds until
                ///< `sustained_seconds` elapses; throughput under saturation.
};

const char* RunModeName(RunMode mode);

/// One named, fully declarative bench scenario: metric × thresholds ×
/// corpus shape × query mix × shard/worker counts × mode. Everything that
/// shapes the work is in the spec (no environment variables), so a spec +
/// seed pins the byte-exact request stream and every deterministic output
/// field of BENCH_<name>.json.
struct WorkloadSpec {
  std::string name;      ///< Registry key, also the BENCH_<name>.json stem.
  std::string scenario;  ///< One-line human description for --list.

  CorpusKind corpus = CorpusKind::kSchemaSets;
  size_t corpus_sets = 600;   ///< Sets in the synthesized corpus.
  uint64_t corpus_seed = 7;   ///< Generator seed (fixed per workload).

  /// Engine configuration: metric/φ/δ/α/scheme/exact_scores/num_shards.
  /// num_threads stays 1 — a request is served single-threaded and
  /// concurrency comes from `workers`, the serving-process shape.
  Options options;

  QueryMix mix = QueryMix::kUniform;
  double zipf_skew = 0.99;    ///< Used only when mix == kZipfian.

  size_t requests = 48;       ///< Requests per round.
  size_t batch = 4;           ///< Reference sets per request.
  uint64_t request_seed = 0x51171C;  ///< Request-stream RNG seed.

  int workers = 1;            ///< Closed-loop client threads.
  RunMode mode = RunMode::kClosedLoop;
  double sustained_seconds = 0.4;  ///< Minimum run time (sustained mode).

  /// When positive, each request runs SearchTopK(ref, top_k) instead of
  /// Search — the KOIOS-style floating-floor serving shape. Top-k serving
  /// is single-index (SilkMoth::SearchTopK returns empty on more shards), so
  /// specs using it must keep num_shards at 1.
  size_t top_k = 0;

  /// When positive, the corpus's last `delta_sets` sets are withheld from
  /// the base index and arrive as one timed DeltaShard ingest instead —
  /// the dynamic-corpus serving shape. The run then has two measured
  /// passes: an uncounted pre-ingest pass over the base shards alone
  /// (pairs_pre_ingest) and the counted round 0 over base + delta. The
  /// request stream is still drawn over the FULL corpus, so the stream
  /// hash stays comparable with the workload's static twin. Direct lane
  /// only: incompatible with top_k and serve, and must stay below
  /// corpus_sets.
  size_t delta_sets = 0;

  /// When true, requests go through the resident ServeEngine's frame path
  /// (encode the payload, Submit(), wait for the response frame) instead of
  /// calling Discover directly — the daemon's admission/worker machinery
  /// measured in-process. `workers` then sizes both the closed-loop clients
  /// and the engine's worker lanes. Incompatible with top_k.
  bool serve = false;
};

/// The registry: every named workload, in a stable order. Names are unique;
/// the CI bench smoke runs a subset and commits their BENCH_*.json, so
/// renaming or removing an entry is a trajectory break — add, don't mutate.
const std::vector<WorkloadSpec>& AllWorkloads();

/// Looks a workload up by name; nullptr when absent.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Synthesizes the raw corpus for `kind`: the exact parameterizations the
/// figure benches use (bench/bench_common.h calls this), so registry
/// workloads and figure benches measure the same data shapes.
RawSets GenerateCorpusRaw(CorpusKind kind, size_t num_sets, uint64_t seed);

/// The tokenizer a spec's φ implies (q-grams for edit similarities, words
/// otherwise) — the same rule the CLI applies to --data files.
TokenizerKind SpecTokenizer(const WorkloadSpec& spec);

/// The deterministic request stream: requests × batch corpus set ids drawn
/// by the spec's mix from `Rng(spec.request_seed)`. Generated up front,
/// single-threaded, before any worker starts — workers consume disjoint
/// slices, which is why the stream (and every counter derived from it) is
/// identical at every worker count.
std::vector<uint32_t> GenerateRequestStream(const WorkloadSpec& spec,
                                            size_t num_corpus_sets);

/// Canonical serialization of a request stream ("id,id,...\n" per request
/// row) — what the determinism tests diff and what the stream hash pins.
std::string SerializeRequestStream(const std::vector<uint32_t>& stream,
                                   size_t batch);

/// FNV-1a of SerializeRequestStream — the `request_stream_hash` field of
/// BENCH_<name>.json, so two JSON files are comparable only when their
/// request streams were identical.
uint64_t HashRequestStream(const std::vector<uint32_t>& stream, size_t batch);

}  // namespace silkmoth::bench

#endif  // SILKMOTH_BENCH_WORKLOAD_H_
