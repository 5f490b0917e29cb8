// Extension (not a paper figure): parallel + sharded discovery scaling.
// The paper leaves distribution as future work; this repository adds
// (a) shared-memory parallelism over reference sets within one index,
// (b) sharding: the engine partitions the indexed collection into
// Options::num_shards contiguous shards, each with its own CSR index (the
// primitive behind a multi-process split), and (c) query-vs-corpus mode: an external reference
// block streamed against the prebuilt indexes (the serve-traffic shape).
// Output must be identical at every thread count and every shard count —
// verified per row.

#include <iostream>

#include "bench/histogram.h"
#include "bench_common.h"
#include "datagen/webtable.h"

namespace {

using namespace silkmoth;
using namespace silkmoth::bench;

/// One timed discovery run (index build included in build(s), excluded from
/// time(s)).
struct ShardedRun {
  double build_seconds = 0.0;
  double seconds = 0.0;
  size_t results = 0;
};

ShardedRun RunSharded(const Workload& w) {
  ShardedRun r;
  WallTimer build_timer;
  SilkMoth engine(&w.data, w.options);
  r.build_seconds = build_timer.ElapsedSeconds();
  if (!engine.ok()) {
    std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
    return r;
  }
  WallTimer timer;
  r.results = engine.DiscoverSelf().size();
  r.seconds = timer.ElapsedSeconds();
  return r;
}

}  // namespace

int main() {
  PrintHeader("Extension figure", "parallel + sharded discovery scaling");

  Workload base = SchemaMatchingWorkload(Scaled(2400));
  Workload serial = base;
  serial.options.num_threads = 1;
  const RunResult reference = RunSilkMoth(serial);

  std::printf("-- threads (one shared index) --\n");
  TablePrinter threads_table({"threads", "time(s)", "speedup", "results",
                              "identical"});
  for (int threads : {1, 2, 4, 8}) {
    Workload w = base;
    w.options.num_threads = threads;
    const RunResult r = RunSilkMoth(w);
    threads_table.AddRow(
        {TablePrinter::Int(threads), TablePrinter::Num(r.seconds, 3),
         TablePrinter::Num(r.seconds > 0 ? reference.seconds / r.seconds : 0,
                           2),
         TablePrinter::Int(static_cast<long long>(r.results)),
         r.results == reference.results ? "yes" : "NO!"});
  }
  threads_table.Print(std::cout);

  // Shard sweep: every reference streams through every shard, so per-query
  // work grows with the shard count (signature generation repeats per
  // shard) while each shard's index shrinks — the throughput curve shows
  // where the partitioning overhead sits before the work is actually
  // distributed across processes. Threads are fixed at 4 to keep the two
  // sweeps comparable.
  std::printf("\n-- shards (threads=4) --\n");
  TablePrinter shards_table({"shards", "build(s)", "time(s)", "refs/s",
                             "results", "identical"});
  for (int shards : {1, 2, 4, 8, 16}) {
    Workload w = base;
    w.options.num_threads = 4;
    w.options.num_shards = shards;
    const ShardedRun r = RunSharded(w);
    const double refs_per_sec =
        r.seconds > 0 ? static_cast<double>(w.data.NumSets()) / r.seconds : 0;
    shards_table.AddRow(
        {TablePrinter::Int(shards), TablePrinter::Num(r.build_seconds, 3),
         TablePrinter::Num(r.seconds, 3), TablePrinter::Num(refs_per_sec, 0),
         TablePrinter::Int(static_cast<long long>(r.results)),
         r.results == reference.results ? "yes" : "NO!"});
  }
  shards_table.Print(std::cout);

  // Query-mode sweep: an external reference block (fresh schema draws over
  // the same vocabulary, tokenized against the corpus dictionary) streamed
  // through the prebuilt shard indexes — the query-vs-corpus workload the
  // snapshot protocol serves out of process. The corpus indexes are built
  // once per shard count; queries reuse them, so time(s) is pure serving
  // cost. Identity: every shard count must reproduce the single-index
  // SilkMoth::Discover result on the same block.
  std::printf("\n-- query mode (external reference block, threads=4) --\n");
  // The payload re-derives a quarter of the corpus's raw sets (same
  // generator, same seed as SchemaMatchingWorkload), so every query has at
  // least its own twin to find — serving cost is measured on a workload
  // that actually matches.
  RawSets query_raw =
      GenerateSchemaSets(SchemaMatchingDefaults(Scaled(2400), /*seed=*/7));
  query_raw.resize(query_raw.size() / 4);
  Collection query_sets;
  const ReferenceBlock query_block = BuildQueryBlock(
      query_raw, TokenizerKind::kWord, 0, base.data, &query_sets);

  Workload qserial = base;
  qserial.options.num_threads = 1;
  SilkMoth qreference_engine(&qserial.data, qserial.options);
  const size_t qreference = qreference_engine.Discover(query_block).size();

  TablePrinter query_table({"shards", "build(s)", "time(s)", "queries/s",
                            "p50(us)", "p95(us)", "p99(us)", "results",
                            "identical"});
  for (int shards : {1, 2, 4, 8}) {
    Workload w = base;
    w.options.num_threads = 4;
    w.options.num_shards = shards;
    WallTimer build_timer;
    SilkMoth engine(&w.data, w.options);
    const double build_seconds = build_timer.ElapsedSeconds();
    if (!engine.ok()) {
      std::fprintf(stderr, "bad options: %s\n", engine.error().c_str());
      continue;
    }
    // Queries are served one at a time through per-query sub-range blocks
    // (the `bench` subcommand's serving shape), so the row carries real
    // per-query tail latencies, not just an aggregate wall clock. Disjoint
    // external sub-blocks union to the whole-block result, which keeps the
    // identity column meaningful.
    LatencyHistogram latency;
    size_t results = 0;
    WallTimer timer;
    for (uint32_t qid = query_block.begin_id(); qid < query_block.end_id();
         ++qid) {
      ReferenceBlock one = query_block;
      one.range = {qid, qid + 1};
      WallTimer per_query;
      results += engine.Discover(one).size();
      latency.RecordSeconds(per_query.ElapsedSeconds());
    }
    const double seconds = timer.ElapsedSeconds();
    const double queries_per_sec =
        seconds > 0 ? static_cast<double>(query_block.NumRefs()) / seconds
                    : 0;
    query_table.AddRow(
        {TablePrinter::Int(shards), TablePrinter::Num(build_seconds, 3),
         TablePrinter::Num(seconds, 3), TablePrinter::Num(queries_per_sec, 0),
         TablePrinter::Num(latency.Percentile(50) / 1e3, 1),
         TablePrinter::Num(latency.Percentile(95) / 1e3, 1),
         TablePrinter::Num(latency.Percentile(99) / 1e3, 1),
         TablePrinter::Int(static_cast<long long>(results)),
         results == qreference ? "yes" : "NO!"});
  }
  query_table.Print(std::cout);
  return 0;
}
