#include "bench/runner.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/io.h"
#include "serve/server.h"
#include "snapshot/delta_shard.h"
#include "snapshot/snapshot.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace silkmoth::bench {

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // Already bytes.
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Kilobytes.
#endif
#else
  return 0;
#endif
}

namespace {

/// Per-worker private state; merged by the runner after join, never shared.
struct WorkerState {
  ShardedSearchStats funnel;   ///< Round-0 funnel counters of this slice.
  size_t pairs = 0;            ///< Round-0 related pairs of this slice.
  LatencyHistogram latency;    ///< Every request, every round.
  size_t completed = 0;        ///< Requests finished, every round.
  size_t rounds = 0;           ///< Full passes over this worker's slice.
  std::string error;           ///< First serve-lane failure ("" = clean).
};

/// Serves requests [begin, end) of `blocks` once, recording per-request
/// latency. Funnel counters and pair counts go to `state` only when
/// `count_results` (round 0) — later sustained rounds repeat byte-identical
/// work, so counting them would just scale the deterministic fields by a
/// nondeterministic round count.
void ServeSlice(const SilkMoth& engine,
                const std::vector<ReferenceBlock>& blocks, size_t begin,
                size_t end, bool count_results, WorkerState* state) {
  for (size_t k = begin; k < end; ++k) {
    ShardedSearchStats* stats = count_results ? &state->funnel : nullptr;
    WallTimer timer;
    const std::vector<PairMatch> matches = engine.Discover(blocks[k], stats);
    state->latency.RecordSeconds(timer.ElapsedSeconds());
    state->completed++;
    if (count_results) state->pairs += matches.size();
  }
}

/// Top-k variant of ServeSlice: each reference set of a request runs
/// SearchTopK against the single-shard engine. Query-side accounting
/// (query_sets, oov_tokens) is stamped the way Discover stamps it for
/// external blocks, so the funnel reads the same across serving shapes.
void ServeTopKSlice(const SilkMoth& engine, const Collection& pool,
                    const std::vector<ReferenceBlock>& blocks, size_t begin,
                    size_t end, size_t top_k, bool count_results,
                    WorkerState* state) {
  for (size_t k = begin; k < end; ++k) {
    ShardedSearchStats* stats = count_results ? &state->funnel : nullptr;
    WallTimer timer;
    size_t pairs = 0;
    for (uint32_t r = blocks[k].range.begin; r < blocks[k].range.end; ++r) {
      pairs += engine.SearchTopK(pool.sets[r], top_k, stats).size();
    }
    state->latency.RecordSeconds(timer.ElapsedSeconds());
    state->completed++;
    if (count_results) {
      state->pairs += pairs;
      stats->per_shard[0].query_sets +=
          blocks[k].range.end - blocks[k].range.begin;
      stats->per_shard[0].oov_tokens += blocks[k].oov_tokens;
    }
  }
}

/// Serve-lane variant of ServeSlice: requests [begin, end) go through the
/// resident engine's frame path — encode the pre-built raw-set payload as a
/// kQuery frame, Submit(), block until the worker's response lands. The
/// closed-loop wait makes each client's outstanding window exactly 1, so
/// `workers` clients drive `workers` engine lanes the way the daemon's
/// transports do. Any response that is not kResult (shed, deadline, error —
/// a bench run sizes admission so none should occur) aborts the slice into
/// state->error. Pair counting reads the response body: a kResult body is
/// pair lines only, one '\n' per pair (the serve parity contract).
void ServeFrameSlice(serve::ServeEngine& engine,
                     const std::vector<std::string>& payloads, size_t begin,
                     size_t end, bool count_results, WorkerState* state) {
  for (size_t k = begin; k < end; ++k) {
    serve::Frame frame;
    frame.type = serve::FrameType::kQuery;
    frame.request_id = static_cast<uint64_t>(k) + 1;
    frame.body = payloads[k];

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    serve::Frame response;
    WallTimer timer;
    engine.Submit(std::move(frame), [&](serve::Frame f) {
      std::lock_guard<std::mutex> lock(mu);
      response = std::move(f);
      done = true;
      cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
    }
    state->latency.RecordSeconds(timer.ElapsedSeconds());
    state->completed++;

    if (response.type != serve::FrameType::kResult) {
      state->error = "request " + std::to_string(k) + " answered with " +
                     serve::FrameTypeName(response.type) + ": " +
                     response.body;
      return;
    }
    if (count_results) {
      for (char c : response.body) {
        if (c == '\n') state->pairs++;
      }
    }
  }
}

/// Dynamic-corpus variant of ServeSlice: requests stream through the base
/// shard views plus the delta view via the one DiscoverAcrossShards
/// driver — the same call the CLI's --delta-file replay and the serve
/// daemon's ingest path make, so the bench measures the production
/// base+delta serving shape.
void ServeDeltaSlice(const Collection& universe,
                     std::span<const ShardView> views, const Options& options,
                     const std::vector<ReferenceBlock>& blocks, size_t begin,
                     size_t end, bool count_results, WorkerState* state) {
  for (size_t k = begin; k < end; ++k) {
    ShardedSearchStats* stats = count_results ? &state->funnel : nullptr;
    WallTimer timer;
    const std::vector<PairMatch> matches =
        DiscoverAcrossShards(blocks[k], universe, views, options, stats);
    state->latency.RecordSeconds(timer.ElapsedSeconds());
    state->completed++;
    if (count_results) state->pairs += matches.size();
  }
}

}  // namespace

std::string RunWorkload(const WorkloadSpec& spec, BenchResult* out) {
  *out = BenchResult{};
  out->spec = spec;
  if (spec.requests == 0 || spec.batch == 0) {
    return "workload '" + spec.name + "': requests and batch must be > 0";
  }
  if (spec.workers < 1) {
    return "workload '" + spec.name + "': workers must be >= 1";
  }

  // Build phase: corpus synthesis, tokenization, shard indexes, and the
  // request pool. All single-threaded except the index build — notably
  // BuildQueryBlock interns into the shared dictionary, so it must finish
  // before any worker reads the collection.
  WallTimer build_timer;
  const RawSets corpus_raw =
      GenerateCorpusRaw(spec.corpus, spec.corpus_sets, spec.corpus_seed);
  if (corpus_raw.empty()) {
    return "workload '" + spec.name + "': corpus came out empty";
  }

  // Dynamic-corpus lane: the last delta_sets sets are withheld from the
  // base build and arrive through one timed DeltaShard ingest below.
  const bool dynamic = spec.delta_sets > 0;
  if (dynamic && spec.delta_sets >= corpus_raw.size()) {
    return "workload '" + spec.name +
           "': delta_sets must stay below the corpus size";
  }
  const size_t base_sets =
      corpus_raw.size() - (dynamic ? spec.delta_sets : 0);

  Options options = spec.options;
  options.num_threads = 1;  // Concurrency comes from the client workers.
  const TokenizerKind tok = SpecTokenizer(spec);
  const Collection corpus = BuildCollection(
      dynamic ? RawSets(corpus_raw.begin(), corpus_raw.begin() + base_sets)
              : corpus_raw,
      tok, options.EffectiveQ());

  // Standard serving goes through SilkMoth::Discover; top-k serving goes
  // through SilkMoth::SearchTopK (the floating-floor pass is single-index),
  // so top-k specs must be single-shard.
  // Serve-lane specs pack the corpus into an in-memory Snapshot and start a
  // resident ServeEngine instead — requests then travel the daemon's
  // admission/worker path.
  const bool topk = spec.top_k > 0;
  const bool serving = spec.serve;
  if (topk && options.num_shards > 1) {
    return "workload '" + spec.name +
           "': top_k serving is single-index; num_shards must be 1";
  }
  if (serving && topk) {
    return "workload '" + spec.name +
           "': the serve engine has no top-k path; top_k must be 0";
  }
  if (dynamic && (topk || serving)) {
    return "workload '" + spec.name +
           "': delta_sets runs the direct lane only; top_k must be 0 and "
           "serve false";
  }
  std::optional<SilkMoth> engine;
  std::optional<serve::ServeEngine> served;
  if (serving) {
    serve::ServeOptions so;
    so.query = options;
    so.workers = spec.workers;
    // Size admission so a bench run never sheds and never waits on the
    // byte budget: shedding is the daemon's overload behavior, not the
    // workload under measurement.
    so.max_queue = std::max<size_t>(spec.requests, 1);
    served.emplace(so);
    const std::string err = served->StartWith(
        BuildSnapshot(corpus, tok, options.EffectiveQ(),
                      static_cast<uint32_t>(std::max(options.num_shards, 1)),
                      /*num_threads=*/1));
    if (!err.empty()) {
      return "workload '" + spec.name + "': " + err;
    }
  } else {
    engine.emplace(&corpus, options);
    if (!engine->ok()) {
      return "workload '" + spec.name + "': " + engine->error();
    }
  }
  const size_t num_shards =
      serving ? static_cast<size_t>(std::max(options.num_shards, 1))
              : engine->num_shards();

  // The timed ingest: the withheld tail goes through one DeltaShard batch,
  // interning its OOV tokens into the shared dictionary — the base-then-
  // delta interning order, so the final dictionary is token-for-token the
  // one a from-scratch build of the full corpus produces (the compaction
  // parity contract). Ingest precedes the request-pool tokenization below
  // for the same reason the CLI replays --delta-file before reading the
  // query: pool OOV must not steal dictionary ids from delta sets.
  std::optional<DeltaShard> delta;
  if (dynamic) {
    delta.emplace(&corpus, tok, options.EffectiveQ());
    const RawSets tail(corpus_raw.begin() + base_sets, corpus_raw.end());
    WallTimer ingest_timer;
    const std::string err = delta->Ingest(tail);
    out->ingest_seconds = ingest_timer.ElapsedSeconds();
    if (!err.empty()) {
      return "workload '" + spec.name + "': ingest: " + err;
    }
    out->delta_sets = delta->delta_sets();
    out->delta_oov_tokens = delta->oov_tokens();
  }
  // The candidate universe requests run against: base + delta combined in
  // the dynamic lane (one shared dictionary), the built corpus otherwise.
  const Collection& universe = dynamic ? delta->combined() : corpus;
  out->corpus_sets = universe.NumSets();
  out->corpus_elements = universe.NumElements();
  out->corpus_tokens = universe.dict->size();

  // Base shard views + the delta view, the dynamic lane's shard universe —
  // one extra trailing funnel slot, the same shape the serve daemon and
  // the --delta-file replay hand to DiscoverAcrossShards.
  std::vector<ShardView> views;
  if (dynamic) {
    views.reserve(num_shards + 1);
    for (size_t s = 0; s < num_shards; ++s) {
      views.push_back(ShardView{engine->shard_range(s),
                                &engine->shard_index(s)});
    }
    views.push_back(delta->View());
  }
  const size_t funnel_slots = dynamic ? views.size() : num_shards;

  const std::vector<uint32_t> stream =
      GenerateRequestStream(spec, corpus_raw.size());
  out->request_stream_hash = HashRequestStream(stream, spec.batch);

  // The request pool: the sampled sets duplicated into one raw payload,
  // tokenized against the corpus dictionary exactly once. Each request is
  // then a range view over the pool block — the same external-block range
  // contract every other discovery path uses.
  RawSets pool_raw;
  pool_raw.reserve(stream.size());
  for (uint32_t id : stream) pool_raw.push_back(corpus_raw[id]);
  Collection query_pool;
  const ReferenceBlock pool_block = BuildQueryBlock(
      pool_raw, tok, options.EffectiveQ(), universe, &query_pool);
  out->pool_oov_tokens = pool_block.oov_tokens;

  std::vector<ReferenceBlock> blocks;
  blocks.reserve(spec.requests);
  for (size_t k = 0; k < spec.requests; ++k) {
    ReferenceBlock block = pool_block;
    block.range.begin = static_cast<uint32_t>(k * spec.batch);
    block.range.end = static_cast<uint32_t>(
        std::min((k + 1) * spec.batch, stream.size()));
    blocks.push_back(block);
  }

  // Serve lane: each request travels as the raw-set payload bytes a real
  // peer would send, pre-encoded here so the measured path starts at
  // Submit(). The engine tokenizes per request against the snapshot's own
  // dictionary — the production serving shape, not the pooled-block one.
  std::vector<std::string> payloads;
  if (serving) {
    payloads.reserve(spec.requests);
    for (size_t k = 0; k < spec.requests; ++k) {
      const size_t b = k * spec.batch;
      const size_t e = std::min((k + 1) * spec.batch, pool_raw.size());
      const RawSets one(pool_raw.begin() + b, pool_raw.begin() + e);
      std::ostringstream oss;
      WriteRawSets(one, oss);
      payloads.push_back(oss.str());
    }
  }
  out->build_seconds = build_timer.ElapsedSeconds();

  // Dynamic lane, the pre-ingest pass: one uncounted single-threaded full
  // pass over the BASE shards alone — what the stream answered before the
  // delta arrived. Running it after the ingest changes nothing: pool
  // tokens the base never saw hold dictionary ids past every base index's
  // range and probe empty posting lists there (the external-query OOV
  // discipline), so "tokenize after ingest, query base shards only" is
  // byte-identical to a chronologically pre-ingest pass.
  if (dynamic) {
    WallTimer pre_timer;
    for (const ReferenceBlock& block : blocks) {
      out->pairs_pre_ingest += engine->Discover(block, nullptr).size();
    }
    out->pre_ingest_seconds = pre_timer.ElapsedSeconds();
  }

  // Serve phase. Workers own contiguous request slices; slice boundaries
  // depend only on (requests, workers), so the round-0 union is exactly one
  // full pass over the stream at every worker count.
  const size_t workers = static_cast<size_t>(spec.workers);
  const size_t per_worker = (blocks.size() + workers - 1) / workers;
  std::vector<WorkerState> states(workers);
  for (WorkerState& s : states) s.funnel.Reset(funnel_slots);

  WallTimer run_timer;
  if (serving) {
    // Round 0 is barriered: every client serves its slice exactly once and
    // joins before the funnel snapshot, so StatsSnapshot() reads exactly
    // one full pass — no sustained re-issue can leak into the
    // deterministic fields.
    {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        const size_t begin = std::min(w * per_worker, blocks.size());
        const size_t end = std::min(begin + per_worker, blocks.size());
        threads.emplace_back([&, w, begin, end] {
          ServeFrameSlice(*served, payloads, begin, end,
                          /*count_results=*/true, &states[w]);
          states[w].rounds = 1;
        });
      }
      for (std::thread& t : threads) t.join();
    }
    out->funnel = served->StatsSnapshot();
    if (spec.mode == RunMode::kSustained) {
      // Sustained rounds re-issue the identical slices uncounted until the
      // deadline (measured from serve start, round 0 included).
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        const size_t begin = std::min(w * per_worker, blocks.size());
        const size_t end = std::min(begin + per_worker, blocks.size());
        threads.emplace_back([&, w, begin, end] {
          WorkerState* state = &states[w];
          while (begin < end && state->error.empty() &&
                 run_timer.ElapsedSeconds() < spec.sustained_seconds) {
            ServeFrameSlice(*served, payloads, begin, end,
                            /*count_results=*/false, state);
            state->rounds++;
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      const size_t begin = std::min(w * per_worker, blocks.size());
      const size_t end = std::min(begin + per_worker, blocks.size());
      threads.emplace_back([&, w, begin, end] {
        WorkerState* state = &states[w];
        const auto serve = [&](bool count_results) {
          if (topk) {
            ServeTopKSlice(*engine, query_pool, blocks, begin, end,
                           spec.top_k, count_results, state);
          } else if (dynamic) {
            ServeDeltaSlice(universe, views, options, blocks, begin, end,
                            count_results, state);
          } else {
            ServeSlice(*engine, blocks, begin, end, count_results, state);
          }
        };
        if (spec.mode == RunMode::kClosedLoop) {
          serve(/*count_results=*/true);
          state->rounds = 1;
          return;
        }
        // Sustained: whole rounds until the deadline, so partial rounds
        // never skew the latency mix toward the slice's cheap prefix.
        WallTimer deadline;
        do {
          serve(/*count_results=*/state->rounds == 0);
          state->rounds++;
        } while (begin < end &&
                 deadline.ElapsedSeconds() < spec.sustained_seconds);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out->run_seconds = run_timer.ElapsedSeconds();

  if (serving) {
    served->Stop();
    const serve::ServeCounters& c = served->counters();
    out->serve_requests_admitted = c.requests_admitted.load();
    out->serve_requests_shed = c.requests_shed.load();
    out->serve_requests_served = c.requests_served.load();
    out->serve_deadline_exceeded = c.deadline_exceeded.load();
    out->serve_worker_faults = c.worker_faults.load();
    for (const WorkerState& s : states) {
      if (!s.error.empty()) {
        return "workload '" + spec.name + "': serve lane: " + s.error;
      }
    }
  }

  // Merge. Funnel counters are commutative sums (the SearchStats::Merge
  // contract), so the merge order cannot leak into deterministic fields.
  // The serve lane's funnel was snapshotted from the engine above; the
  // direct lanes union their workers' private counters here.
  if (!serving) {
    out->funnel.Reset(funnel_slots);
    for (const WorkerState& s : states) out->funnel.Merge(s.funnel);
  }
  for (const WorkerState& s : states) {
    out->pairs_per_round += s.pairs;
    out->latency.Merge(s.latency);
    out->completed_requests += s.completed;
  }
  out->requests_per_second =
      out->run_seconds > 0.0
          ? static_cast<double>(out->completed_requests) / out->run_seconds
          : 0.0;
  out->peak_rss_bytes = PeakRssBytes();
  return "";
}

}  // namespace silkmoth::bench
