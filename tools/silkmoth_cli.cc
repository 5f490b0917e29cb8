// silkmoth_cli: run RELATED SET SEARCH / DISCOVERY over plain-text files,
// in one process or split across processes via binary snapshots.
//
// Input format (see src/datagen/io.h): one element per line, blank line
// between sets, leading '#' comment lines allowed.
//
// Single-process:
//   silkmoth_cli discover --data sets.txt [options]
//   silkmoth_cli search   --data sets.txt --query query.txt [options]
//
// Query-vs-corpus over a prebuilt snapshot (cross-collection discovery:
// every query set against every corpus set, zero re-tokenization of the
// corpus):
//   silkmoth_cli query --snapshot corpus.snap --input queries.txt [options]
//
// Out-of-process sharding (see docs/ARCHITECTURE.md, "Snapshot format &
// process protocol"): build once, run each shard anywhere, merge streams —
// byte-identical output to the in-process run (`discover --shards N`, or
// `query` when shard-run gets --query). With --split the build writes a
// common file plus one file per shard, and each shard-run maps only common
// + its own shard (startup cost scales with the shard, not the corpus):
//   silkmoth_cli build     --data sets.txt --out corpus.snap --shards N
//                          [--split]
//   silkmoth_cli shard-run --snapshot corpus.snap --shard K --out rK.txt
//                          [--query queries.txt]
//   silkmoth_cli merge     r0.txt r1.txt ... [--stats] [--allow-partial]
//
// Dynamic corpora (see docs/ARCHITECTURE.md, "Dynamic corpora"): a snapshot
// stays write-once, but new sets accumulate in a plain-text *delta file*
// that ingest appends to and every read mode replays as an in-memory delta
// shard (global set ids continuing past the base range). compact merges
// base + delta into a next-generation snapshot (atomic publish, generation
// counter bumped); discovery over base + delta is byte-identical to
// discovery over the compacted snapshot:
//   silkmoth_cli ingest   --snapshot corpus.snap --input new.txt
//                         --delta-out delta.txt
//   silkmoth_cli discover --snapshot corpus.snap [--delta-file delta.txt]
//   silkmoth_cli query    --snapshot corpus.snap --input q.txt
//                         [--delta-file delta.txt]
//   silkmoth_cli compact  --snapshot corpus.snap --delta-file delta.txt
//                         --out next.snap [--shards N] [--split]
//
// Supervised end-to-end pipeline (build + one supervised shard-run process
// per shard + merge, with per-shard deadlines, retries with capped
// exponential backoff, and an optional degraded partial merge — see
// docs/ARCHITECTURE.md, "Supervised orchestration & failure model"):
//   silkmoth_cli run --data sets.txt --shards N [--jobs J] [--retries R]
//                    [--shard-deadline S] [--allow-partial]
//                    [--report run.json] [--query queries.txt]
//
// Resident serving (see docs/ARCHITECTURE.md, "Serving data path" and
// docs/CLI.md, "serve"): a long-lived daemon mmaps a snapshot once and
// answers query payloads over a length-prefixed frame protocol — bounded
// admission queues with explicit OVERLOADED shedding, per-request
// deadlines with stamped partial coverage, and SIGHUP snapshot hot-swap.
// Non-shed, non-deadline responses are byte-identical to
// `query --snapshot` output:
//   silkmoth_cli serve --snapshot corpus.snap --listen SOCK | --stdio
//                      [--workers N] [--max-queue N] [--max-inflight B]
//                      [--max-frame B] [--request-deadline S]
//   silkmoth_cli serve-client --connect SOCK
//                      (--ping | --shutdown | --input queries.txt)
//
// Named-workload benchmarks (see docs/WORKLOADS.md for the registry and
// docs/CLI.md for the BENCH_*.json schema): every scenario is declarative
// and seeded, so everything outside the report's "timing" key is
// reproducible bit for bit:
//   silkmoth_cli bench --list
//   silkmoth_cli bench --workload schema-sim-zipf [--json BENCH.json]
//                      [--requests N] [--batch N] [--workers N]
//                      [--duration S] [--seed N] [--shards N] [--stats]
//
// See docs/CLI.md for the complete reference (every flag, exit codes, file
// formats) and a copy-pasteable build→query walkthrough.
//
// Options:
//   --metric similarity|containment   (default similarity)
//   --phi jaccard|eds|neds            (default jaccard)
//   --delta <0..1]                    (default 0.7)
//   --alpha [0..1)                    (default 0)
//   --q <int>                         (edit similarity; default from alpha)
//   --scheme weighted|unweighted|skyline|dichotomy   (default dichotomy)
//   --threads <n>                     (default 1)
//   --shards <n>                      (index shards; default 1)
//   --stats                           (print phase statistics; per-shard
//                                      breakdown when sharded)
//   --split                           (build: per-shard snapshot files)
//   --copy-load                       (query/shard-run: deep-copy load
//                                      instead of the default zero-copy
//                                      mmap)
//   --approx-scores                   (report greedy lower bounds for
//                                      bound-accepted pairs; skips their
//                                      reporting solve)
//   --generate dblp|schema|columns N  (write a synthetic dataset instead)

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define SILKMOTH_CLI_HAVE_UNISTD 1
#endif

#include "bench/bench_json.h"
#include "bench/runner.h"
#include "bench/workload.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/dblp.h"
#include "datagen/io.h"
#include "datagen/webtable.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot/compactor.h"
#include "snapshot/delta_shard.h"
#include "snapshot/orchestrator.h"
#include "snapshot/shard_runner.h"
#include "snapshot/snapshot.h"
#include "util/atomic_file_writer.h"
#include "util/exit_codes.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace {

using namespace silkmoth;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s discover --data FILE | --snapshot SNAPSHOT "
      "[--delta-file FILE] [options]\n"
      "       %s search --data FILE --query FILE [options]\n"
      "       %s query --snapshot SNAPSHOT --input FILE "
      "[--delta-file FILE] [options]\n"
      "       %s build --data FILE --out SNAPSHOT [--shards N] [options]\n"
      "       %s ingest --snapshot SNAPSHOT --input FILE --delta-out FILE\n"
      "       %s compact --snapshot SNAPSHOT --out SNAPSHOT "
      "[--delta-file FILE] [--shards N] [--split]\n"
      "       %s shard-run --snapshot SNAPSHOT --shard K --out RESULT "
      "[--query FILE] [options]\n"
      "       %s merge RESULT... [--stats] [--allow-partial]\n"
      "       %s run --data FILE [--query FILE] [options]\n"
      "       %s serve --snapshot SNAPSHOT --listen SOCK|--stdio [options]\n"
      "       %s serve-client --connect SOCK --ping|--shutdown|--input "
      "FILE|--ingest FILE\n"
      "       %s bench --list | --workload NAME [--json FILE] [options]\n"
      "       %s generate dblp|schema|columns N OUT\n"
      "options: --metric similarity|containment --phi jaccard|eds|neds\n"
      "         --delta D --alpha A --q Q --scheme "
      "weighted|unweighted|skyline|dichotomy\n"
      "         --threads N --shards N --stats --oracle-check\n"
      "         --split --copy-load --approx-scores\n"
      "search:  --top-k K (K best matches per query, best-first; "
      "single-index)\n"
      "run:     --jobs N --retries N --shard-deadline S --allow-partial\n"
      "         --report FILE --workdir DIR --keep-workdir\n"
      "         --backoff-base S --backoff-cap S --backoff-seed N\n"
      "serve:   --workers N --max-queue N --max-inflight BYTES\n"
      "         --max-frame BYTES --request-deadline S\n"
      "bench:   --requests N --batch N --workers N --duration S --seed N\n"
      "see docs/CLI.md for the full reference (incl. the exit-code table)\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      argv0, argv0, argv0);
  return ExitCode(CliExit::kUsage);
}

/// Everything the subcommands parse from the command line. Positional
/// arguments (merge's result files) land in `inputs`.
struct CliArgs {
  Options opt;
  std::string data_path;
  std::string query_path;
  std::string out_path;
  std::string snapshot_path;
  long shard = -1;
  bool stats = false;
  bool oracle_check = false;
  bool split = false;
  bool copy_load = false;
  // `run` supervision policy (defaults mirror OrchestratorOptions).
  long jobs = 0;
  long retries = 2;
  double shard_deadline = 0.0;
  double backoff_base = 0.05;
  double backoff_cap = 2.0;
  unsigned long long backoff_seed = 0;
  bool allow_partial = false;
  bool keep_workdir = false;
  std::string report_path;
  std::string workdir;
  std::vector<FaultPlan> injections;
  std::vector<std::string> inputs;
  // `bench` subcommand: workload selection plus spec overrides (-1 means
  // "keep the registry value"). shards_set distinguishes an explicit
  // --shards from the option default, which must not clobber a workload's
  // own shard count.
  std::string workload;
  std::string json_path;
  bool list_workloads = false;
  bool shards_set = false;
  long bench_requests = -1;
  long bench_batch = -1;
  long bench_workers = -1;
  double bench_duration = -1.0;
  long bench_seed = -1;
  // `search` subcommand: 0 means "all matches"; > 0 serves the K best per
  // query through the single-index SearchTopK pass.
  long top_k = 0;
  // `serve` subcommand: transport selection + admission/deadline policy
  // (docs/CLI.md, "serve"). --workers reuses bench_workers above.
  std::string listen_path;
  bool stdio = false;
  long max_queue = 64;
  long max_inflight = 64 << 20;
  long max_frame = static_cast<long>(serve::kDefaultMaxFrameBytes);
  double request_deadline = 0.0;
  // `serve-client` subcommand: where to connect and which single frame to
  // send (--input reuses query_path for the query payload).
  std::string connect_path;
  bool ping = false;
  bool shutdown_frame = false;
  // Dynamic corpora: the delta file ingest appends to (--delta-out) and
  // the delta file read modes replay (--delta-file). serve-client's
  // --ingest sends FILE as a kIngest frame.
  std::string delta_out_path;
  std::string delta_file_path;
  std::string ingest_path;
};

/// strtol with full-string validation; false (and a stderr line) on junk.
bool ParseLong(const char* flag, const char* v, long* out) {
  char* end = nullptr;
  *out = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "invalid %s value: %s\n", flag, v);
    return false;
  }
  return true;
}

/// strtod with full-string validation; false (and a stderr line) on junk.
bool ParseDouble(const char* flag, const char* v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "invalid %s value: %s\n", flag, v);
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, int start, CliArgs* args) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (v == nullptr) return false;
      args->data_path = v;
    } else if (arg == "--query" || arg == "--input") {
      // --query FILE (search, shard-run) and --input FILE (query) are the
      // same thing: the reference payload streamed against the corpus.
      const char* v = next();
      if (v == nullptr) return false;
      args->query_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_path = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      args->snapshot_path = v;
    } else if (arg == "--shard") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--shard", v, &args->shard)) return false;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--jobs", v, &args->jobs)) return false;
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--retries", v, &args->retries)) {
        return false;
      }
    } else if (arg == "--shard-deadline") {
      const char* v = next();
      if (v == nullptr ||
          !ParseDouble("--shard-deadline", v, &args->shard_deadline)) {
        return false;
      }
    } else if (arg == "--backoff-base") {
      const char* v = next();
      if (v == nullptr ||
          !ParseDouble("--backoff-base", v, &args->backoff_base)) {
        return false;
      }
    } else if (arg == "--backoff-cap") {
      const char* v = next();
      if (v == nullptr ||
          !ParseDouble("--backoff-cap", v, &args->backoff_cap)) {
        return false;
      }
    } else if (arg == "--backoff-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      long seed = 0;
      if (!ParseLong("--backoff-seed", v, &seed)) return false;
      args->backoff_seed = static_cast<unsigned long long>(seed);
    } else if (arg == "--allow-partial") {
      args->allow_partial = true;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return false;
      args->report_path = v;
    } else if (arg == "--workdir") {
      const char* v = next();
      if (v == nullptr) return false;
      args->workdir = v;
    } else if (arg == "--keep-workdir") {
      args->keep_workdir = true;
    } else if (arg == "--inject") {
      // Hidden, test-only: arm a SILKMOTH_FAULT spec in one worker attempt
      // (see src/snapshot/orchestrator.h, FaultPlan). Repeatable.
      const char* v = next();
      if (v == nullptr) return false;
      FaultPlan plan;
      const std::string perr = ParseFaultPlan(v, &plan);
      if (!perr.empty()) {
        std::fprintf(stderr, "invalid --inject value: %s\n", perr.c_str());
        return false;
      }
      args->injections.push_back(plan);
    } else if (arg == "--metric") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "similarity") == 0) {
        args->opt.metric = Relatedness::kSimilarity;
      } else if (std::strcmp(v, "containment") == 0) {
        args->opt.metric = Relatedness::kContainment;
      } else {
        return false;
      }
    } else if (arg == "--phi") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "jaccard") == 0) {
        args->opt.phi = SimilarityKind::kJaccard;
      } else if (std::strcmp(v, "eds") == 0) {
        args->opt.phi = SimilarityKind::kEds;
      } else if (std::strcmp(v, "neds") == 0) {
        args->opt.phi = SimilarityKind::kNeds;
      } else {
        return false;
      }
    } else if (arg == "--delta") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opt.delta = std::atof(v);
    } else if (arg == "--alpha") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opt.alpha = std::atof(v);
    } else if (arg == "--q") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opt.q = std::atoi(v);
    } else if (arg == "--scheme") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "weighted") == 0) {
        args->opt.scheme = SignatureSchemeKind::kWeighted;
      } else if (std::strcmp(v, "unweighted") == 0) {
        args->opt.scheme = SignatureSchemeKind::kCombUnweighted;
      } else if (std::strcmp(v, "skyline") == 0) {
        args->opt.scheme = SignatureSchemeKind::kSkyline;
      } else if (std::strcmp(v, "dichotomy") == 0) {
        args->opt.scheme = SignatureSchemeKind::kDichotomy;
      } else {
        return false;
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opt.num_threads = std::atoi(v);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opt.num_shards = std::atoi(v);
      args->shards_set = true;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      args->workload = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->json_path = v;
    } else if (arg == "--list") {
      args->list_workloads = true;
    } else if (arg == "--requests") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--requests", v, &args->bench_requests)) {
        return false;
      }
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--batch", v, &args->bench_batch)) {
        return false;
      }
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--workers", v, &args->bench_workers)) {
        return false;
      }
    } else if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr ||
          !ParseDouble("--duration", v, &args->bench_duration)) {
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--seed", v, &args->bench_seed)) {
        return false;
      }
    } else if (arg == "--top-k") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--top-k", v, &args->top_k)) {
        return false;
      }
      if (args->top_k <= 0) {
        std::fprintf(stderr, "invalid --top-k value: %s (must be > 0)\n", v);
        return false;
      }
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return false;
      args->listen_path = v;
    } else if (arg == "--stdio") {
      args->stdio = true;
    } else if (arg == "--max-queue") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--max-queue", v, &args->max_queue)) {
        return false;
      }
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr ||
          !ParseLong("--max-inflight", v, &args->max_inflight)) {
        return false;
      }
    } else if (arg == "--max-frame") {
      const char* v = next();
      if (v == nullptr || !ParseLong("--max-frame", v, &args->max_frame)) {
        return false;
      }
    } else if (arg == "--request-deadline") {
      const char* v = next();
      if (v == nullptr ||
          !ParseDouble("--request-deadline", v, &args->request_deadline)) {
        return false;
      }
    } else if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return false;
      args->connect_path = v;
    } else if (arg == "--delta-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->delta_out_path = v;
    } else if (arg == "--delta-file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->delta_file_path = v;
    } else if (arg == "--ingest") {
      const char* v = next();
      if (v == nullptr) return false;
      args->ingest_path = v;
    } else if (arg == "--ping") {
      args->ping = true;
    } else if (arg == "--shutdown") {
      args->shutdown_frame = true;
    } else if (arg == "--stats") {
      args->stats = true;
    } else if (arg == "--oracle-check") {
      args->oracle_check = true;
    } else if (arg == "--split") {
      args->split = true;
    } else if (arg == "--copy-load") {
      args->copy_load = true;
    } else if (arg == "--approx-scores") {
      args->opt.exact_scores = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else {
      args->inputs.push_back(arg);
    }
  }
  return true;
}

int Generate(int argc, char** argv) {
  if (argc < 5) return Usage(argv[0]);
  const std::string kind = argv[2];
  const size_t n = static_cast<size_t>(std::atoll(argv[3]));
  const std::string out = argv[4];
  RawSets sets;
  if (kind == "dblp") {
    DblpParams p;
    p.num_titles = n;
    sets = GenerateDblpSets(p);
  } else if (kind == "schema") {
    sets = GenerateSchemaSets(SchemaMatchingDefaults(n));
  } else if (kind == "columns") {
    sets = GenerateColumnSets(InclusionDependencyDefaults(n));
  } else {
    return Usage(argv[0]);
  }
  if (!SaveRawSets(sets, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("wrote %zu sets to %s\n", sets.size(), out.c_str());
  return ExitCode(CliExit::kOk);
}

/// Loads + tokenizes the --data file per the parsed options.
bool LoadData(const CliArgs& args, Collection* data, TokenizerKind* tk) {
  RawSets raw;
  if (!LoadRawSets(args.data_path, &raw)) {
    std::fprintf(stderr, "cannot read %s\n", args.data_path.c_str());
    return false;
  }
  *tk = IsEditSimilarity(args.opt.phi) ? TokenizerKind::kQGram
                                       : TokenizerKind::kWord;
  *data = BuildCollection(raw, *tk, args.opt.EffectiveQ());
  std::printf("# loaded %zu sets (%zu elements) from %s\n", data->NumSets(),
              data->NumElements(), args.data_path.c_str());
  return true;
}

/// Maps a snapshot/shard-result loader error onto the documented exit
/// contract: open/stat/read failures mean the bytes never arrived (I/O);
/// anything else a loader reports means the bytes arrived but failed an
/// integrity gate (bad magic/version/CRC, truncation, malformed lines).
CliExit LoadErrorExit(const std::string& err) {
  if (err.find("out of range") != std::string::npos) {
    return CliExit::kUsage;  // asked for a shard the snapshot doesn't have
  }
  const bool io = err.find("cannot open") != std::string::npos ||
                  err.find("cannot stat") != std::string::npos ||
                  err.find("cannot read") != std::string::npos ||
                  err.find("read from") != std::string::npos;
  return io ? CliExit::kIo : CliExit::kCorruptInput;
}

/// Prints the explicit partial-coverage stamp — comment lines ahead of the
/// pair stream, so a degraded merge is never mistaken for a complete one.
/// Ranges are the half-open global set-id ranges the covered shards owned.
void PrintCoverage(const MergeCoverage& cov) {
  // FormatCoverage is the one stamp formatter — the serve daemon's
  // DEADLINE_EXCEEDED bodies use it too, so the grammar cannot drift.
  std::fputs(FormatCoverage(cov).c_str(), stdout);
}

/// Path of the running binary, for `run` to exec its own shard-run
/// workers: /proc/self/exe when the kernel offers it, else argv[0].
std::string SelfBinaryPath(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0;
}

/// Creates a fresh run work directory under the system temp dir. Collision
/// handling rides on create_directory's atomicity (true only for the
/// creator), so concurrent runs never share a directory.
std::string MakeWorkDir(std::string* err) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base = fs::temp_directory_path(ec);
  if (ec) {
    *err = "cannot resolve the system temp directory: " + ec.message();
    return "";
  }
  for (int i = 0; i < 100000; ++i) {
    const fs::path cand = base / ("silkmoth-run-" + std::to_string(i));
    if (fs::create_directory(cand, ec)) return cand.string();
  }
  *err = "cannot create a work directory under " + base.string();
  return "";
}

/// The worker command line `run` forwards to every shard-run process —
/// exactly the options that shape discovery output, so the supervised
/// pipeline stays byte-identical to `discover --shards N`.
std::vector<std::string> WorkerFlags(const Options& opt, bool copy_load) {
  std::vector<std::string> flags;
  auto add = [&](const char* k, std::string v) {
    flags.emplace_back(k);
    flags.push_back(std::move(v));
  };
  char buf[64];
  add("--metric", opt.metric == Relatedness::kContainment ? "containment"
                                                          : "similarity");
  add("--phi", opt.phi == SimilarityKind::kEds    ? "eds"
               : opt.phi == SimilarityKind::kNeds ? "neds"
                                                  : "jaccard");
  // %.17g round-trips a double exactly through the worker's strtod.
  std::snprintf(buf, sizeof(buf), "%.17g", opt.delta);
  add("--delta", buf);
  std::snprintf(buf, sizeof(buf), "%.17g", opt.alpha);
  add("--alpha", buf);
  if (opt.q > 0) add("--q", std::to_string(opt.q));
  add("--scheme",
      opt.scheme == SignatureSchemeKind::kWeighted         ? "weighted"
      : opt.scheme == SignatureSchemeKind::kCombUnweighted ? "unweighted"
      : opt.scheme == SignatureSchemeKind::kSkyline        ? "skyline"
                                                           : "dichotomy");
  add("--threads", std::to_string(opt.num_threads));
  if (!opt.exact_scores) flags.emplace_back("--approx-scores");
  if (copy_load) flags.emplace_back("--copy-load");
  return flags;
}

/// The run-report file: the orchestrator's RunReport JSON extended with the
/// merge verdict (`partial`, `pairs`) and, when a merge happened, the
/// global funnel counters. Schema in docs/CLI.md, "Run report".
std::string BuildRunReportJson(const RunReport& report,
                               const ShardedSearchStats* stats,
                               size_t num_pairs, bool partial) {
  std::string json = report.ToJson();
  json.pop_back();  // reopen the trailing '}'
  json += ",\"partial\":";
  json += partial ? "true" : "false";
  json += ",\"pairs\":" + std::to_string(num_pairs);
  if (stats != nullptr) json += ",\"funnel\":" + stats->Total().ToJson();
  json += "}";
  return json;
}

/// Stages + commits the report JSON atomically; "" on success.
std::string WriteRunReport(const std::string& path, const std::string& json) {
  AtomicFileWriter writer(path);
  std::string err = writer.Open();
  if (err.empty()) err = writer.Write(json + "\n");
  if (err.empty()) err = writer.Commit();
  return err;
}

// build: tokenize + index + write snapshot. One process does the expensive
// preparation; any number of shard-run processes reuse it with zero
// re-tokenization.
int RunBuild(const CliArgs& args) {
  if (args.data_path.empty() || args.out_path.empty()) {
    std::fprintf(stderr, "build needs --data and --out\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string err = args.opt.Validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  Collection data;
  TokenizerKind tk;
  if (!LoadData(args, &data, &tk)) return ExitCode(CliExit::kIo);
  const int q = tk == TokenizerKind::kQGram ? args.opt.EffectiveQ() : 0;
  WallTimer timer;
  Snapshot snap =
      BuildSnapshot(std::move(data), tk, q,
                    static_cast<uint32_t>(args.opt.num_shards),
                    args.opt.num_threads);
  const std::string save_err =
      args.split ? SaveSnapshotSplit(snap, args.out_path)
                 : SaveSnapshot(snap, args.out_path);
  if (!save_err.empty()) {
    std::fprintf(stderr, "%s\n", save_err.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("# wrote %s snapshot %s: %zu sets, %zu tokens, %zu shards "
              "in %.3fs\n",
              args.split ? "split" : "monolithic", args.out_path.c_str(),
              snap.data.NumSets(), snap.data.dict->size(), snap.num_shards(),
              timer.ElapsedSeconds());
  if (args.split) {
    for (uint32_t s = 0; s < snap.num_shards(); ++s) {
      std::printf("# shard file %s\n",
                  SnapshotShardPath(args.out_path, s).c_str());
    }
  }
  return ExitCode(CliExit::kOk);
}

/// Reads + tokenizes a query payload against `corpus`'s dictionary into
/// `*query`, returning the external reference block over it (oov counted,
/// payload fingerprinted). `corpus` is the snapshot's collection — or the
/// combined base+delta collection when a delta file is in play, so payload
/// tokens the delta introduced resolve to their interned ids. Prints the
/// one-line query summary. Returns false (with a stderr diagnostic) when
/// the file cannot be read.
bool LoadQueryBlock(const std::string& path, TokenizerKind tokenizer, int q,
                    const Collection& corpus, Collection* query,
                    ReferenceBlock* block) {
  RawSets raw;
  if (!LoadRawSets(path, &raw)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  *block = BuildQueryBlock(raw, tokenizer, q, corpus, query);
  std::printf("# query payload: %zu sets (%zu elements), %zu oov tokens, "
              "hash %016llx\n",
              query->NumSets(), query->NumElements(), block->oov_tokens,
              static_cast<unsigned long long>(block->content_hash));
  return true;
}

/// Prints the oracle-agreement line shared by discover/query: exact mode
/// compares pairs bit-for-bit; --approx-scores compares the pair ids only
/// (bound-reported scores legitimately differ from the oracle's solves).
void PrintOracleAgreement(const std::vector<PairMatch>& pairs,
                          const std::vector<PairMatch>& truth,
                          bool exact_scores) {
  if (exact_scores) {
    std::printf("# oracle agreement: %s\n", pairs == truth ? "yes" : "NO");
    return;
  }
  bool ids_match = pairs.size() == truth.size();
  for (size_t i = 0; ids_match && i < pairs.size(); ++i) {
    ids_match = pairs[i].ref_id == truth[i].ref_id &&
                pairs[i].set_id == truth[i].set_id;
  }
  std::printf("# oracle agreement (pair ids; --approx-scores): %s\n",
              ids_match ? "yes" : "NO");
}

// shard-run: load a snapshot, execute discovery for one shard id — the
// snapshot's own self-join, or with --query an external payload streamed
// against the shard — and persist the sorted PairMatch stream + stats.
int RunShard(const CliArgs& args) {
  if (args.snapshot_path.empty()) {
    std::fprintf(stderr, "shard-run needs --snapshot\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.shard < 0) {
    std::fprintf(stderr, "shard-run needs --shard K (0-based)\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.out_path.empty()) {
    std::fprintf(stderr, "shard-run needs --out\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string opt_err = args.opt.Validate();
  if (!opt_err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", opt_err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  // Worker-side fault hook (a no-op unless SILKMOTH_FAULT arms it):
  // kill/abort/sleep execute inside Hit(); a `fail` outcome exits cleanly
  // non-zero so the orchestrator sees a plain worker failure.
  if (fault::Hit("worker-start").kind == fault::Outcome::kFail) {
    std::fprintf(stderr, "injected worker-start failure\n");
    return ExitCode(CliExit::kIo);
  }
  // Shard-local load: on a split snapshot this maps exactly two files —
  // common + this shard — so worker startup scales with the shard size.
  WallTimer load_timer;
  Snapshot snap;
  SnapshotLoadStats load_stats;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string load_err =
      LoadSnapshotShard(args.snapshot_path, static_cast<uint32_t>(args.shard),
                        &snap, mode, &load_stats);
  if (!load_err.empty()) {
    std::fprintf(stderr, "%s\n", load_err.c_str());
    return ExitCode(LoadErrorExit(load_err));
  }
  std::printf("# load: %" PRIu64 " files, %" PRIu64 " bytes mapped, %" PRIu64
              " bytes copied in %.3fs\n",
              load_stats.files, load_stats.bytes_mapped,
              load_stats.bytes_copied, load_timer.ElapsedSeconds());
  const std::string compat_err = CheckSnapshotCompatible(snap, args.opt);
  if (!compat_err.empty()) {
    std::fprintf(stderr, "%s\n", compat_err.c_str());
    return ExitCode(CliExit::kIncompatible);
  }
  WallTimer timer;
  ShardResult result;
  result.shard = static_cast<uint32_t>(args.shard);
  result.num_shards = static_cast<uint32_t>(snap.num_shards());
  result.options = args.opt;
  // The shard's global set-id range rides along in the result file (format
  // v4) — it is what a degraded partial merge stamps as covered.
  result.range = snap.shards[result.shard].range;
  if (!args.query_path.empty()) {
    // Query mode: stream an external payload against this shard. The result
    // file records the payload hash, so merge refuses to combine shards run
    // against different queries (or against a self-join).
    Collection query;
    ReferenceBlock block;
    const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
    if (!LoadQueryBlock(args.query_path, snap.tokenizer, q, snap.data,
                        &query, &block)) {
      return ExitCode(CliExit::kIo);
    }
    result.query_mode = true;
    result.query_hash = block.content_hash;
    result.pairs = DiscoverShardAgainst(snap, result.shard, block, args.opt,
                                        &result.stats);
  } else {
    result.pairs = DiscoverShardSelf(snap, result.shard, args.opt,
                                     &result.stats);
  }
  const std::string save_err = SaveShardResult(result, args.out_path);
  if (!save_err.empty()) {
    std::fprintf(stderr, "%s\n", save_err.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("# shard %u/%u: %zu pairs in %.3fs -> %s\n", result.shard,
              result.num_shards, result.pairs.size(), timer.ElapsedSeconds(),
              args.out_path.c_str());
  if (args.stats) std::fputs(result.stats.ToString().c_str(), stdout);
  return ExitCode(CliExit::kOk);
}

/// Replays a delta file (the --delta-file flag) into `*delta`, printing
/// the one-line delta summary. An empty path is a no-op; a missing or
/// unreadable file is an error (stderr diagnostic, false returned) — a
/// delta file named explicitly must exist, silence would serve stale data.
bool ReplayDeltaFile(const std::string& path, DeltaShard* delta) {
  if (path.empty()) return true;
  RawSets raw;
  if (!LoadRawSets(path, &raw)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  const std::string err = delta->Ingest(raw);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return false;
  }
  std::printf("# delta %s: %zu sets, %zu oov tokens\n", path.c_str(),
              delta->delta_sets(), delta->oov_tokens());
  return true;
}

// query: cross-collection discovery over a prebuilt snapshot, in one
// process — load every shard (zero-copy mmap by default), tokenize the
// query payload against the snapshot's dictionary, and stream it through
// all shard indexes. Output format matches discover/merge, and the
// build → shard-run --query → merge pipeline produces the byte-identical
// stream.
int RunQuery(const CliArgs& args) {
  if (args.snapshot_path.empty() || args.query_path.empty()) {
    std::fprintf(stderr, "query needs --snapshot and --input\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string opt_err = args.opt.Validate();
  if (!opt_err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", opt_err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  WallTimer load_timer;
  Snapshot snap;
  SnapshotLoadStats load_stats;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string load_err =
      LoadSnapshot(args.snapshot_path, &snap, mode, &load_stats);
  if (!load_err.empty()) {
    std::fprintf(stderr, "%s\n", load_err.c_str());
    return ExitCode(LoadErrorExit(load_err));
  }
  std::printf("# load: %" PRIu64 " files, %" PRIu64 " bytes mapped, %" PRIu64
              " bytes copied in %.3fs\n",
              load_stats.files, load_stats.bytes_mapped,
              load_stats.bytes_copied, load_timer.ElapsedSeconds());
  const std::string compat_err = CheckSnapshotCompatible(snap, args.opt);
  if (!compat_err.empty()) {
    std::fprintf(stderr, "%s\n", compat_err.c_str());
    return ExitCode(CliExit::kIncompatible);
  }
  // Delta replay happens *before* query tokenization, so the payload sees
  // delta-interned token ids — the same dictionary state a compacted
  // snapshot would present.
  const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
  DeltaShard delta(&snap.data, snap.tokenizer, q);
  if (!ReplayDeltaFile(args.delta_file_path, &delta)) {
    return ExitCode(CliExit::kIo);
  }
  const Collection& corpus =
      delta.delta_sets() > 0 ? delta.combined() : snap.data;
  Collection query;
  ReferenceBlock block;
  if (!LoadQueryBlock(args.query_path, snap.tokenizer, q, corpus, &query,
                      &block)) {
    return ExitCode(CliExit::kIo);
  }

  std::vector<ShardView> views(snap.num_shards());
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    views[s] = ShardView{snap.shards[s].range, &snap.shards[s].index};
  }
  if (delta.delta_sets() > 0) views.push_back(delta.View());
  ShardedSearchStats stats;
  stats.Reset(views.size());
  WallTimer timer;
  std::vector<PairMatch> pairs =
      DiscoverAcrossShards(block, corpus, views, args.opt, &stats);
  std::printf("# %zu related pairs in %.3fs\n", pairs.size(),
              timer.ElapsedSeconds());
  for (const auto& p : pairs) {
    std::printf("%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id, p.matching_score,
                p.relatedness);
  }
  if (args.oracle_check) {
    BruteForce oracle(&corpus, args.opt);
    PrintOracleAgreement(pairs, oracle.Discover(query),
                         args.opt.exact_scores);
  }
  if (args.stats) std::fputs(stats.ToString().c_str(), stdout);
  return ExitCode(CliExit::kOk);
}

// discover --snapshot: self-join discovery over a prebuilt snapshot —
// the sharding comes from the snapshot, and an optional --delta-file
// replays ingested sets as one extra in-memory shard. This is the read
// side of the dynamic-corpus byte-identity contract: the pair stream over
// (base + delta) equals the stream `discover --snapshot` prints over the
// compacted snapshot of the same state.
int RunDiscoverSnapshot(const CliArgs& args) {
  if (args.shards_set) {
    std::fprintf(stderr, "discover --snapshot takes its partition from the "
                         "snapshot; drop --shards\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string opt_err = args.opt.Validate();
  if (!opt_err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", opt_err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  Snapshot snap;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string load_err = LoadSnapshot(args.snapshot_path, &snap, mode);
  if (!load_err.empty()) {
    std::fprintf(stderr, "%s\n", load_err.c_str());
    return ExitCode(LoadErrorExit(load_err));
  }
  const std::string compat_err = CheckSnapshotCompatible(snap, args.opt);
  if (!compat_err.empty()) {
    std::fprintf(stderr, "%s\n", compat_err.c_str());
    return ExitCode(CliExit::kIncompatible);
  }
  const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
  DeltaShard delta(&snap.data, snap.tokenizer, q);
  if (!ReplayDeltaFile(args.delta_file_path, &delta)) {
    return ExitCode(CliExit::kIo);
  }
  const Collection& corpus =
      delta.delta_sets() > 0 ? delta.combined() : snap.data;
  std::printf("# snapshot %s: generation %llu, %zu base sets + %zu delta "
              "sets\n",
              args.snapshot_path.c_str(),
              static_cast<unsigned long long>(snap.generation),
              snap.data.NumSets(), delta.delta_sets());

  std::vector<ShardView> views(snap.num_shards());
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    views[s] = ShardView{snap.shards[s].range, &snap.shards[s].index};
  }
  if (delta.delta_sets() > 0) views.push_back(delta.View());
  ShardedSearchStats stats;
  stats.Reset(views.size());
  WallTimer timer;
  const ReferenceBlock block = ReferenceBlock::SelfJoin(corpus);
  std::vector<PairMatch> pairs =
      DiscoverAcrossShards(block, corpus, views, args.opt, &stats);
  std::printf("# %zu related pairs in %.3fs\n", pairs.size(),
              timer.ElapsedSeconds());
  for (const auto& p : pairs) {
    std::printf("%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id, p.matching_score,
                p.relatedness);
  }
  if (args.oracle_check) {
    BruteForce oracle(&corpus, args.opt);
    PrintOracleAgreement(pairs, oracle.DiscoverSelf(), args.opt.exact_scores);
  }
  if (args.stats) std::fputs(stats.ToString().c_str(), stdout);
  return ExitCode(CliExit::kOk);
}

// ingest: append a batch of raw sets to a snapshot's delta file. The
// snapshot file itself never changes; the delta file is the durable
// representation of everything ingested since the last compaction, and is
// rewritten atomically (replay-then-rewrite keeps it one canonical text
// file rather than an append log with partial-write hazards). The replay
// also validates the batch against the snapshot and reports OOV counts.
int RunIngest(const CliArgs& args) {
  if (args.snapshot_path.empty() || args.query_path.empty() ||
      args.delta_out_path.empty()) {
    std::fprintf(stderr, "ingest needs --snapshot, --input, and "
                         "--delta-out\n");
    return ExitCode(CliExit::kUsage);
  }
  Snapshot snap;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string load_err = LoadSnapshot(args.snapshot_path, &snap, mode);
  if (!load_err.empty()) {
    std::fprintf(stderr, "%s\n", load_err.c_str());
    return ExitCode(LoadErrorExit(load_err));
  }
  RawSets existing;
  if (std::filesystem::exists(args.delta_out_path) &&
      !LoadRawSets(args.delta_out_path, &existing)) {
    std::fprintf(stderr, "cannot read %s\n", args.delta_out_path.c_str());
    return ExitCode(CliExit::kIo);
  }
  RawSets batch;
  if (!LoadRawSets(args.query_path, &batch)) {
    std::fprintf(stderr, "cannot read %s\n", args.query_path.c_str());
    return ExitCode(CliExit::kIo);
  }

  const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
  DeltaShard delta(&snap.data, snap.tokenizer, q);
  std::string err = delta.Ingest(existing);
  if (err.empty()) {
    const size_t oov_before = delta.oov_tokens();
    err = delta.Ingest(batch);
    if (err.empty()) {
      std::printf("# ingested %zu sets (%zu new tokens)\n", batch.size(),
                  delta.oov_tokens() - oov_before);
    }
  }
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return ExitCode(CliExit::kUsage);
  }

  RawSets all = std::move(existing);
  all.insert(all.end(), batch.begin(), batch.end());
  std::ostringstream body;
  WriteRawSets(all, body);
  AtomicFileWriter writer(args.delta_out_path);
  std::string werr = writer.Open();
  if (werr.empty()) werr = writer.Write(body.str());
  if (werr.empty()) werr = writer.Commit();
  if (!werr.empty()) {
    std::fprintf(stderr, "%s\n", werr.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("# delta %s: %zu sets, %zu oov tokens over %s "
              "(generation %llu)\n",
              args.delta_out_path.c_str(), delta.delta_sets(),
              delta.oov_tokens(), args.snapshot_path.c_str(),
              static_cast<unsigned long long>(snap.generation));
  return ExitCode(CliExit::kOk);
}

// compact: merge a snapshot and its delta file into a next-generation
// snapshot — canonical re-partition, generation counter bumped, published
// atomically under the compact-write fault site (shard files first, common
// last, so no readable partial generation can ever exist). Without
// --delta-file this re-partitions the base alone.
int RunCompact(const CliArgs& args) {
  if (args.snapshot_path.empty() || args.out_path.empty()) {
    std::fprintf(stderr, "compact needs --snapshot and --out\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.shards_set && args.opt.num_shards < 1) {
    std::fprintf(stderr, "compact: --shards must be >= 1\n");
    return ExitCode(CliExit::kUsage);
  }
  Snapshot snap;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string load_err = LoadSnapshot(args.snapshot_path, &snap, mode);
  if (!load_err.empty()) {
    std::fprintf(stderr, "%s\n", load_err.c_str());
    return ExitCode(LoadErrorExit(load_err));
  }
  const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
  DeltaShard delta(&snap.data, snap.tokenizer, q);
  if (!ReplayDeltaFile(args.delta_file_path, &delta)) {
    return ExitCode(CliExit::kIo);
  }

  CompactOptions co;
  co.num_shards = args.shards_set
                      ? static_cast<uint32_t>(args.opt.num_shards)
                      : static_cast<uint32_t>(snap.num_shards());
  co.split = args.split;
  co.num_threads = args.opt.num_threads;
  WallTimer timer;
  CompactResult res;
  const std::string err =
      CompactSnapshot(snap, delta, args.out_path, co, &res);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("# compacted %s -> %s %s: generation %llu, %llu sets "
              "(%llu from delta), %u shards in %.3fs\n",
              args.snapshot_path.c_str(),
              args.split ? "split" : "monolithic", args.out_path.c_str(),
              static_cast<unsigned long long>(res.generation),
              static_cast<unsigned long long>(res.total_sets),
              static_cast<unsigned long long>(res.delta_sets),
              res.num_shards, timer.ElapsedSeconds());
  if (args.split) {
    for (uint32_t s = 0; s < res.num_shards; ++s) {
      std::printf("# shard file %s\n",
                  SnapshotShardPath(args.out_path, s).c_str());
    }
  }
  return ExitCode(CliExit::kOk);
}

// merge: k-way merge shard result streams into the exact discover output.
// With --allow-partial an incomplete set of results merges anyway, with the
// coverage stamped ahead of the pairs and exit code kPartialResult.
int RunMerge(const CliArgs& args) {
  if (args.inputs.empty()) {
    std::fprintf(stderr, "merge needs at least one shard result file\n");
    return ExitCode(CliExit::kUsage);
  }
  std::vector<ShardResult> results(args.inputs.size());
  for (size_t i = 0; i < args.inputs.size(); ++i) {
    const std::string err = LoadShardResult(args.inputs[i], &results[i]);
    if (!err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return ExitCode(LoadErrorExit(err));
    }
  }
  std::vector<PairMatch> pairs;
  ShardedSearchStats stats;
  MergeCoverage cov;
  const std::string err =
      MergeShardResults(results, &pairs, &stats,
                        MergeOptions{args.allow_partial}, &cov);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return ExitCode(CliExit::kIncompatible);
  }
  std::printf("# merged %zu shard results: %zu pairs\n", results.size(),
              pairs.size());
  if (!cov.complete) PrintCoverage(cov);
  // Exactly the discover output format, so merged out-of-process runs diff
  // clean against `discover --shards N` (comment lines aside).
  for (const auto& p : pairs) {
    std::printf("%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id, p.matching_score,
                p.relatedness);
  }
  if (args.stats) std::fputs(stats.ToString().c_str(), stdout);
  return ExitCode(cov.complete ? CliExit::kOk : CliExit::kPartialResult);
}

// serve: the resident daemon — load a snapshot once, then answer query
// payloads over the frame protocol until SIGTERM/SIGINT, a shutdown frame,
// or (stdio transport) EOF. See src/serve/server.h for the threading model
// and docs/CLI.md, "serve" for the frame grammar.
int RunServe(const CliArgs& args) {
  if (args.snapshot_path.empty()) {
    std::fprintf(stderr, "serve needs --snapshot\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.listen_path.empty() == !args.stdio) {
    std::fprintf(stderr, "serve needs exactly one of --listen SOCK or "
                         "--stdio\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string opt_err = args.opt.Validate();
  if (!opt_err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", opt_err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  if (args.max_queue <= 0 || args.max_inflight <= 0 || args.max_frame <= 0 ||
      args.request_deadline < 0.0 ||
      (args.bench_workers != -1 && args.bench_workers <= 0)) {
    std::fprintf(stderr, "serve: --workers/--max-queue/--max-inflight/"
                         "--max-frame must be positive and "
                         "--request-deadline non-negative\n");
    return ExitCode(CliExit::kUsage);
  }

  serve::ServeOptions so;
  so.snapshot_path = args.snapshot_path;
  so.query = args.opt;
  so.load_mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  so.workers = args.bench_workers > 0 ? static_cast<int>(args.bench_workers)
                                      : 2;
  so.max_queue = static_cast<size_t>(args.max_queue);
  so.max_inflight_bytes = static_cast<size_t>(args.max_inflight);
  so.max_frame_bytes = static_cast<size_t>(args.max_frame);
  so.request_deadline_seconds = args.request_deadline;

  serve::ServeEngine engine(so);
  const std::string err = engine.Start();
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return ExitCode(LoadErrorExit(err));
  }
  serve::InstallServeSignalHandlers();
  if (args.stdio) {
    // Frames own stdout; every human-readable line goes to stderr.
    std::fprintf(stderr, "# serving generation %llu on stdio (%d workers)\n",
                 static_cast<unsigned long long>(engine.generation_id()),
                 so.workers);
    return serve::RunStdioServer(engine);
  }
  return serve::RunSocketServer(engine, args.listen_path);
}

// serve-client: connect to a serve daemon's unix socket, send exactly one
// frame — a ping, a shutdown, the --input file as a query payload, or the
// --ingest file as an ingest payload — and print the response body. The
// response frame type maps onto the exit-code contract: result/ingested 0,
// error 3, overloaded 5, deadline-exceeded 6.
int RunServeClient(const CliArgs& args) {
#if SILKMOTH_CLI_HAVE_UNISTD
  if (args.connect_path.empty()) {
    std::fprintf(stderr, "serve-client needs --connect SOCK\n");
    return ExitCode(CliExit::kUsage);
  }
  const int want = (args.ping ? 1 : 0) + (args.shutdown_frame ? 1 : 0) +
                   (args.query_path.empty() ? 0 : 1) +
                   (args.ingest_path.empty() ? 0 : 1);
  if (want != 1) {
    std::fprintf(stderr, "serve-client needs exactly one of --ping, "
                         "--shutdown, --input FILE, or --ingest FILE\n");
    return ExitCode(CliExit::kUsage);
  }

  serve::Frame req;
  req.request_id = 1;
  if (args.ping) {
    req.type = serve::FrameType::kPing;
  } else if (args.shutdown_frame) {
    req.type = serve::FrameType::kShutdown;
  } else {
    const bool ingest = !args.ingest_path.empty();
    const std::string& path = ingest ? args.ingest_path : args.query_path;
    req.type = ingest ? serve::FrameType::kIngest : serve::FrameType::kQuery;
    RawSets raw;
    if (!LoadRawSets(path, &raw)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return ExitCode(CliExit::kIo);
    }
    std::ostringstream body;
    WriteRawSets(raw, body);
    req.body = body.str();
  }

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (args.connect_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "serve-client: socket path too long: %s\n",
                 args.connect_path.c_str());
    return ExitCode(CliExit::kUsage);
  }
  std::memcpy(addr.sun_path, args.connect_path.c_str(),
              args.connect_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "serve-client: cannot connect to %s: %s\n",
                 args.connect_path.c_str(), std::strerror(errno));
    if (fd >= 0) ::close(fd);
    return ExitCode(CliExit::kIo);
  }

  const std::string bytes = serve::EncodeFrame(req);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "serve-client: write failed: %s\n",
                   std::strerror(errno));
      ::close(fd);
      return ExitCode(CliExit::kIo);
    }
    off += static_cast<size_t>(n);
  }

  serve::FrameDecoder decoder(serve::kDefaultMaxFrameBytes);
  serve::Frame resp;
  char buf[1 << 16];
  for (;;) {
    serve::FrameDecoder::Status st = decoder.Next(&resp);
    if (st == serve::FrameDecoder::Status::kFrame) break;
    if (st != serve::FrameDecoder::Status::kNeedMore) {
      std::fprintf(stderr, "serve-client: malformed response frame (%s)\n",
                   serve::FrameDecoder::StatusName(st));
      ::close(fd);
      return ExitCode(CliExit::kCorruptInput);
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      std::fprintf(stderr, "serve-client: connection closed before a "
                           "response frame arrived\n");
      ::close(fd);
      return ExitCode(CliExit::kIo);
    }
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
  switch (resp.type) {
    case serve::FrameType::kResult:
    case serve::FrameType::kPong:
    case serve::FrameType::kIngested:
      return ExitCode(CliExit::kOk);
    case serve::FrameType::kOverloaded:
      std::fprintf(stderr, "serve-client: request shed (overloaded)\n");
      return ExitCode(CliExit::kWorkerFailure);
    case serve::FrameType::kDeadlineExceeded:
      std::fprintf(stderr, "serve-client: deadline exceeded (partial "
                           "coverage stamped above)\n");
      return ExitCode(CliExit::kPartialResult);
    default:
      std::fprintf(stderr, "serve-client: server error frame (%s)\n",
                   serve::FrameTypeName(resp.type));
      return ExitCode(CliExit::kCorruptInput);
  }
#else
  (void)args;
  std::fprintf(stderr, "serve-client needs POSIX sockets\n");
  return ExitCode(CliExit::kIo);
#endif
}

// SIGTERM cancellation for `run`: the handler only sets the flag; the
// orchestrator's supervision loop notices it, SIGKILLs and reaps every
// active worker, and RunRun then removes staged .tmp files and re-raises so
// the process dies with the conventional 128+SIGTERM status.
std::atomic<bool> g_run_cancel{false};

#if SILKMOTH_CLI_HAVE_UNISTD
void RunCancelHandler(int) { g_run_cancel.store(true); }
#endif

// run: the supervised end-to-end pipeline — build the snapshot, drive one
// shard-run worker process per shard under deadlines/retries/backoff (see
// src/snapshot/orchestrator.h), then merge. Strict mode (the default)
// fails with kWorkerFailure naming every shard that exhausted its retries;
// --allow-partial degrades to a stamped partial merge instead.
int RunRun(const CliArgs& args, const char* argv0) {
  if (args.data_path.empty()) {
    std::fprintf(stderr, "run needs --data\n");
    return ExitCode(CliExit::kUsage);
  }
  const std::string opt_err = args.opt.Validate();
  if (!opt_err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", opt_err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  if (args.jobs < 0 || args.retries < 0 || args.shard_deadline < 0 ||
      args.backoff_base < 0 || args.backoff_cap < 0) {
    std::fprintf(stderr, "run: --jobs/--retries/--shard-deadline/"
                         "--backoff-* must be non-negative\n");
    return ExitCode(CliExit::kUsage);
  }

  // Work directory: the snapshot, shard results, and per-attempt worker
  // logs live here. An auto-created one is removed after a fully clean run
  // (unless --keep-workdir); a user-supplied --workdir is always kept, and
  // any failure keeps the directory so the logs can be inspected.
  std::string workdir = args.workdir;
  const bool auto_workdir = workdir.empty();
  if (auto_workdir) {
    std::string dir_err;
    workdir = MakeWorkDir(&dir_err);
    if (workdir.empty()) {
      std::fprintf(stderr, "%s\n", dir_err.c_str());
      return ExitCode(CliExit::kIo);
    }
  } else {
    std::error_code ec;
    std::filesystem::create_directories(workdir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create workdir %s: %s\n", workdir.c_str(),
                   ec.message().c_str());
      return ExitCode(CliExit::kIo);
    }
  }
  std::printf("# workdir %s\n", workdir.c_str());

  // Build phase, in-process — the same preparation `build` does.
  Collection data;
  TokenizerKind tk;
  if (!LoadData(args, &data, &tk)) return ExitCode(CliExit::kIo);
  const int q = tk == TokenizerKind::kQGram ? args.opt.EffectiveQ() : 0;
  const uint32_t shards =
      args.opt.num_shards < 1 ? 1 : static_cast<uint32_t>(args.opt.num_shards);
  WallTimer build_timer;
  Snapshot snap = BuildSnapshot(std::move(data), tk, q, shards,
                                args.opt.num_threads);
  const std::string snap_path = workdir + "/corpus.snap";
  const std::string save_err = args.split
                                   ? SaveSnapshotSplit(snap, snap_path)
                                   : SaveSnapshot(snap, snap_path);
  if (!save_err.empty()) {
    std::fprintf(stderr, "%s\n", save_err.c_str());
    return ExitCode(CliExit::kIo);
  }
  std::printf("# built snapshot: %zu sets, %zu shards in %.3fs\n",
              snap.data.NumSets(), snap.num_shards(),
              build_timer.ElapsedSeconds());

  OrchestratorOptions oo;
  oo.worker_binary = SelfBinaryPath(argv0);
  oo.snapshot_path = snap_path;
  oo.result_dir = workdir;
  oo.query_path = args.query_path;
  oo.worker_flags = WorkerFlags(args.opt, args.copy_load);
  oo.num_shards = static_cast<uint32_t>(snap.num_shards());
  oo.max_parallel = static_cast<int>(args.jobs);
  oo.max_attempts = static_cast<int>(args.retries) + 1;
  oo.shard_deadline_seconds = args.shard_deadline;
  oo.backoff_base_seconds = args.backoff_base;
  oo.backoff_cap_seconds = args.backoff_cap;
  oo.backoff_seed = args.backoff_seed;
  oo.injections = args.injections;
  oo.cancel = &g_run_cancel;

#if SILKMOTH_CLI_HAVE_UNISTD
  // SIGTERM during supervision cancels cooperatively: workers are killed
  // and reaped by the orchestrator, then the cleanup below runs. No
  // SA_RESTART — supervision polls, nothing here needs restarting.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = RunCancelHandler;
  sigaction(SIGTERM, &sa, nullptr);
#endif

  RunReport report;
  std::vector<ShardResult> results;
  const std::string sup_err = RunSupervised(oo, &report, &results);
  if (!sup_err.empty()) {
    std::fprintf(stderr, "%s\n", sup_err.c_str());
    return ExitCode(CliExit::kIo);
  }

#if SILKMOTH_CLI_HAVE_UNISTD
  if (g_run_cancel.load()) {
    // Cancelled: every worker is already killed and reaped. Remove the
    // .tmp files their interrupted AtomicFileWriter commits left staged —
    // nothing may keep accumulating under the workdir — then die with the
    // conventional 128+SIGTERM status so supervisors see a signal death.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(workdir, ec)) {
      if (entry.path().extension() == ".tmp") {
        std::filesystem::remove(entry.path(), ec);
      }
    }
    std::fprintf(stderr,
                 "run: cancelled by SIGTERM; workers killed, staged .tmp "
                 "files removed (workdir kept: %s)\n",
                 workdir.c_str());
    std::signal(SIGTERM, SIG_DFL);
    raise(SIGTERM);
    return 128 + SIGTERM;  // unreachable unless SIGTERM is blocked
  }
#endif

  // The report file is written on every path from here down — a failed run
  // needs its diagnostics the most.
  auto emit_report = [&](const ShardedSearchStats* stats, size_t num_pairs,
                         bool partial) -> bool {
    if (args.report_path.empty()) return true;
    const std::string werr = WriteRunReport(
        args.report_path,
        BuildRunReportJson(report, stats, num_pairs, partial));
    if (!werr.empty()) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return false;
    }
    std::printf("# run report -> %s\n", args.report_path.c_str());
    return true;
  };

  if (!report.ok && (!args.allow_partial || results.empty())) {
    // Strict failure — or a degraded run with nothing at all to merge.
    std::fprintf(stderr, "run: %zu of %u shards failed after retries:\n",
                 report.failed_shards.size(), report.num_shards);
    for (const ShardRunRecord& sr : report.shards) {
      if (sr.ok || sr.attempts.empty()) continue;
      const AttemptRecord& last = sr.attempts.back();
      std::fprintf(stderr, "  shard %u: %zu attempts, last %s: %s\n",
                   sr.shard, sr.attempts.size(),
                   ShardOutcomeName(last.outcome), last.detail.c_str());
    }
    std::fprintf(stderr, "run: worker logs kept in %s\n", workdir.c_str());
    emit_report(nullptr, 0, false);
    return ExitCode(CliExit::kWorkerFailure);
  }

  std::vector<PairMatch> pairs;
  ShardedSearchStats stats;
  MergeCoverage cov;
  const std::string merge_err =
      MergeShardResults(results, &pairs, &stats,
                        MergeOptions{args.allow_partial}, &cov);
  if (!merge_err.empty()) {
    std::fprintf(stderr, "%s\n", merge_err.c_str());
    emit_report(nullptr, 0, false);
    return ExitCode(CliExit::kIncompatible);
  }
  if (!emit_report(&stats, pairs.size(), !cov.complete)) {
    return ExitCode(CliExit::kIo);
  }

  std::printf("# run: %u shards, %zu attempts, %zu retries, %zu timeouts "
              "in %.3fs\n",
              report.num_shards, report.attempts_total, report.retries,
              report.timeouts, report.wall_seconds);
  std::printf("# merged %zu shard results: %zu pairs\n", results.size(),
              pairs.size());
  if (!cov.complete) PrintCoverage(cov);
  // The discover output format, byte-identical to `discover --shards N`
  // when every shard arrived (the cross-process parity contract).
  for (const auto& p : pairs) {
    std::printf("%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id, p.matching_score,
                p.relatedness);
  }
  if (args.stats) std::fputs(stats.ToString().c_str(), stdout);

  if (auto_workdir && !args.keep_workdir && report.ok) {
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);  // best effort
  } else if (!report.ok) {
    std::fprintf(stderr, "run: worker logs kept in %s\n", workdir.c_str());
  }
  return ExitCode(cov.complete ? CliExit::kOk : CliExit::kPartialResult);
}

// bench: run one named workload from the registry (src/bench/workload.h)
// and optionally emit the versioned BENCH_*.json report. Overrides
// (--requests/--batch/--workers/--duration/--seed/--shards) rewrite the
// spec before the run, and the report records the rewritten spec — a
// BENCH file always describes exactly what ran.
int RunBench(const CliArgs& args) {
  using bench::WorkloadSpec;
  if (args.list_workloads) {
    std::printf("%-26s %s\n", "name", "scenario");
    for (const WorkloadSpec& spec : bench::AllWorkloads()) {
      std::printf("%-26s %s\n", spec.name.c_str(), spec.scenario.c_str());
    }
    return ExitCode(CliExit::kOk);
  }
  if (args.workload.empty()) {
    std::fprintf(stderr, "bench needs --workload NAME (or --list)\n");
    return ExitCode(CliExit::kUsage);
  }
  const WorkloadSpec* found = bench::FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload: %s (try `bench --list`)\n",
                 args.workload.c_str());
    return ExitCode(CliExit::kUsage);
  }

  WorkloadSpec spec = *found;
  // -1 is the "not passed" sentinel; anything else must be positive.
  const bool bad_override =
      (args.bench_requests != -1 && args.bench_requests <= 0) ||
      (args.bench_batch != -1 && args.bench_batch <= 0) ||
      (args.bench_workers != -1 && args.bench_workers <= 0) ||
      (args.bench_seed != -1 && args.bench_seed <= 0) ||
      (args.bench_duration != -1.0 && args.bench_duration <= 0.0);
  if (bad_override) {
    std::fprintf(stderr,
                 "bench: --requests/--batch/--workers/--duration/--seed "
                 "must be positive\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.bench_requests > 0) {
    spec.requests = static_cast<size_t>(args.bench_requests);
  }
  if (args.bench_batch > 0) spec.batch = static_cast<size_t>(args.bench_batch);
  if (args.bench_workers > 0) {
    spec.workers = static_cast<int>(args.bench_workers);
  }
  if (args.bench_duration > 0.0) spec.sustained_seconds = args.bench_duration;
  if (args.bench_seed > 0) {
    spec.request_seed = static_cast<uint64_t>(args.bench_seed);
  }
  if (args.shards_set) spec.options.num_shards = args.opt.num_shards;

  bench::BenchResult result;
  const std::string err = bench::RunWorkload(spec, &result);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return ExitCode(CliExit::kUsage);
  }

  std::printf("# workload %s: %s\n", spec.name.c_str(),
              spec.scenario.c_str());
  std::printf("# corpus: %zu sets, %zu elements, %zu tokens (build %.3fs)\n",
              result.corpus_sets, result.corpus_elements,
              result.corpus_tokens, result.build_seconds);
  std::printf("# %zu requests in %.3fs (%.1f req/s), %zu pairs/round\n",
              result.completed_requests, result.run_seconds,
              result.requests_per_second, result.pairs_per_round);
  const bench::LatencyHistogram& lat = result.latency;
  std::printf("# latency us: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
              lat.Percentile(50) / 1e3, lat.Percentile(95) / 1e3,
              lat.Percentile(99) / 1e3, lat.Max() / 1e3);
  if (args.stats) std::fputs(result.funnel.ToString().c_str(), stdout);

  if (!args.json_path.empty()) {
    AtomicFileWriter writer(args.json_path);
    std::string werr = writer.Open();
    if (werr.empty()) werr = writer.Write(bench::BenchResultToJson(result));
    if (werr.empty()) werr = writer.Commit();
    if (!werr.empty()) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return ExitCode(CliExit::kIo);
    }
    std::printf("# bench report -> %s\n", args.json_path.c_str());
  }
  return ExitCode(CliExit::kOk);
}

/// The real main, wrapped so FinishStdout can audit stdout afterwards.
int RunMain(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "generate") return Generate(argc, argv);
  const bool known = mode == "discover" || mode == "search" ||
                     mode == "query" || mode == "build" ||
                     mode == "ingest" || mode == "compact" ||
                     mode == "shard-run" || mode == "merge" ||
                     mode == "run" || mode == "serve" ||
                     mode == "serve-client" || mode == "bench";
  if (!known) {
    std::fprintf(stderr, "unknown subcommand: %s\n", mode.c_str());
    return ExitCode(CliExit::kUsage);
  }

  CliArgs args;
  if (!ParseArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  // Only merge takes positional arguments (its result files); anywhere else
  // a stray word is a mistake (a forgotten flag, a second data file) that
  // must not be silently ignored.
  if (mode != "merge" && !args.inputs.empty()) {
    std::fprintf(stderr, "unexpected argument: %s\n",
                 args.inputs.front().c_str());
    return ExitCode(CliExit::kUsage);
  }

  if (mode == "build") return RunBuild(args);
  if (mode == "ingest") return RunIngest(args);
  if (mode == "compact") return RunCompact(args);
  if (mode == "shard-run") return RunShard(args);
  if (mode == "query") return RunQuery(args);
  if (mode == "merge") return RunMerge(args);
  if (mode == "discover" && !args.snapshot_path.empty()) {
    return RunDiscoverSnapshot(args);
  }
  if (mode == "run") return RunRun(args, argv[0]);
  if (mode == "serve") return RunServe(args);
  if (mode == "serve-client") return RunServeClient(args);
  if (mode == "bench") return RunBench(args);

  if (args.data_path.empty() ||
      (mode == "search" && args.query_path.empty())) {
    return Usage(argv[0]);
  }
  const std::string err = args.opt.Validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", err.c_str());
    return ExitCode(CliExit::kUsage);
  }
  if (args.top_k > 0 && mode != "search") {
    std::fprintf(stderr, "--top-k only applies to search\n");
    return ExitCode(CliExit::kUsage);
  }
  if (args.top_k > 0 && args.opt.num_shards >= 2) {
    std::fprintf(stderr, "--top-k serving is single-index; drop --shards\n");
    return ExitCode(CliExit::kUsage);
  }

  Collection data;
  TokenizerKind tk;
  if (!LoadData(args, &data, &tk)) return ExitCode(CliExit::kIo);

  const SilkMoth engine(&data, args.opt);
  if (!engine.ok()) {
    std::fprintf(stderr, "invalid options: %s\n", engine.error().c_str());
    return ExitCode(CliExit::kUsage);
  }
  const bool sharded = engine.num_shards() >= 2;
  if (sharded) {
    std::printf("# sharded engine: %zu shards\n", engine.num_shards());
  }

  WallTimer timer;
  ShardedSearchStats stats;
  if (mode == "discover") {
    auto pairs = engine.DiscoverSelf(&stats);
    std::printf("# %zu related pairs in %.3fs\n", pairs.size(),
                timer.ElapsedSeconds());
    for (const auto& p : pairs) {
      std::printf("%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id,
                  p.matching_score, p.relatedness);
    }
    if (args.oracle_check) {
      BruteForce oracle(&data, args.opt);
      PrintOracleAgreement(pairs, oracle.DiscoverSelf(),
                           args.opt.exact_scores);
    }
  } else {
    RawSets query_raw;
    if (!LoadRawSets(args.query_path, &query_raw) || query_raw.empty()) {
      std::fprintf(stderr, "cannot read %s\n", args.query_path.c_str());
      return ExitCode(CliExit::kIo);
    }
    for (size_t qi = 0; qi < query_raw.size(); ++qi) {
      SetRecord ref =
          BuildReference(query_raw[qi], tk, args.opt.EffectiveQ(), &data);
      auto matches =
          args.top_k > 0
              ? engine.SearchTopK(ref, static_cast<size_t>(args.top_k), &stats)
              : engine.Search(ref, &stats);
      for (const auto& m : matches) {
        std::printf("%zu\t%u\t%.6f\t%.6f\n", qi, m.set_id, m.matching_score,
                    m.relatedness);
      }
    }
    std::printf("# %zu queries in %.3fs\n", query_raw.size(),
                timer.ElapsedSeconds());
  }
  if (args.stats) {
    // One shard prints the plain funnel; more add the per-shard table.
    std::fputs(sharded ? stats.ToString().c_str()
                       : stats.Total().ToString().c_str(),
               stdout);
  }
  return ExitCode(CliExit::kOk);
}

/// Settles stdout after RunMain: flush, and turn a write failure — EPIPE
/// from a closed pipe (SIGPIPE is ignored below), ENOSPC, anything that
/// marked the stream — into the I/O exit code, so `silkmoth_cli ... | head`
/// never reports success for output nobody received. A subcommand's own
/// failure code wins over the stdout audit.
int FinishStdout(int code) {
  const bool flush_failed = std::fflush(stdout) != 0;
  if (code == ExitCode(CliExit::kOk) &&
      (flush_failed || std::ferror(stdout) != 0)) {
    std::fprintf(stderr, "stdout write failed (broken pipe or disk full)\n");
    return ExitCode(CliExit::kIo);
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
#if SILKMOTH_CLI_HAVE_UNISTD
  // A reader hanging up (| head, a dying daemon peer) must surface as an
  // EPIPE write error handled by FinishStdout / the serve transports — not
  // kill the process with an unhandled SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  return FinishStdout(RunMain(argc, argv));
}
