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
// Options: every flag, its default and its validation rule live in
// docs/CLI.md ("Common options" and the per-subcommand sections), with the
// exit codes, the file formats and a copy-pasteable build→query
// walkthrough. The parser below is one flag table (ParseArgs).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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

/// Prints `msg` as a one-line stderr diagnostic and returns `code`'s exit
/// status.
int Fail(CliExit code, const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  return ExitCode(code);
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

/// The "invalid FLAG value: V" diagnostic; always false.
bool Invalid(const char* flag, const char* v) {
  std::fprintf(stderr, "invalid %s value: %s\n", flag, v);
  return false;
}

/// strtol with full-string validation; false (and a stderr line) on junk.
bool ParseLong(const char* flag, const char* v, long* out) {
  char* end = nullptr;
  *out = std::strtol(v, &end, 10);
  return (end != v && *end == '\0') || Invalid(flag, v);
}

/// strtod with full-string validation; false (and a stderr line) on junk,
/// NaN included.
bool ParseDouble(const char* flag, const char* v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v, &end);
  return (end != v && *end == '\0' && !std::isnan(*out)) || Invalid(flag, v);
}

/// The command-line spelling of each enum value: the one list the parser
/// (--metric/--phi/--scheme) and `run`'s worker flags both read.
template <typename E>
using Names = std::vector<std::pair<const char*, E>>;

const Names<Relatedness> kMetricNames = {
    {"similarity", Relatedness::kSimilarity},
    {"containment", Relatedness::kContainment}};
const Names<SimilarityKind> kPhiNames = {{"jaccard", SimilarityKind::kJaccard},
                                         {"eds", SimilarityKind::kEds},
                                         {"neds", SimilarityKind::kNeds}};
const Names<SignatureSchemeKind> kSchemeNames = {
    {"weighted", SignatureSchemeKind::kWeighted},
    {"unweighted", SignatureSchemeKind::kCombUnweighted},
    {"skyline", SignatureSchemeKind::kSkyline},
    {"dichotomy", SignatureSchemeKind::kDichotomy}};

template <typename E>
const char* NameOf(const Names<E>& names, E value) {
  for (const auto& [name, e] : names) {
    if (e == value) return name;
  }
  return "";
}

/// A field of CliArgs or of its Options: where a flag's value lands.
template <typename T>
T& FieldOf(CliArgs& a, T CliArgs::*field) {
  return a.*field;
}
template <typename T>
T& FieldOf(CliArgs& a, T Options::*field) {
  return a.opt.*field;
}

/// Where a flag's value goes. `set` parses and stores it, returning false
/// (after a stderr diagnostic) on junk; switches take no value.
struct Dest {
  bool takes_value;
  std::function<bool(CliArgs& a, const char* flag, const char* v)> set;
};

template <typename M>
Dest Str(M field) {
  return {true, [field](CliArgs& a, const char*, const char* v) {
            FieldOf(a, field) = v;
            return true;
          }};
}

template <typename M>
Dest Long(M field) {
  return {true, [field](CliArgs& a, const char* flag, const char* v) {
            return ParseLong(flag, v, &FieldOf(a, field));
          }};
}

template <typename M>
Dest Int(M field) {
  return {true, [field](CliArgs& a, const char* flag, const char* v) {
            long x = 0;
            if (!ParseLong(flag, v, &x)) return false;
            if (x < INT_MIN || x > INT_MAX) return Invalid(flag, v);
            FieldOf(a, field) = static_cast<int>(x);
            return true;
          }};
}

template <typename M>
Dest Double(M field) {
  return {true, [field](CliArgs& a, const char* flag, const char* v) {
            return ParseDouble(flag, v, &FieldOf(a, field));
          }};
}

template <typename M, typename E>
Dest Enum(M field, const Names<E>& names) {
  return {true, [field, &names](CliArgs& a, const char* flag, const char* v) {
            for (const auto& [name, e] : names) {
              if (std::strcmp(name, v) == 0) {
                FieldOf(a, field) = e;
                return true;
              }
            }
            return Invalid(flag, v);
          }};
}

template <typename M>
Dest Switch(M field, bool value = true) {
  return {false, [field, value](CliArgs& a, const char*, const char*) {
            FieldOf(a, field) = value;
            return true;
          }};
}

/// The flag table: one row per flag, one table for every subcommand. The
/// parser accepts every flag for every subcommand; each reads the fields
/// it uses.
const std::pair<const char*, Dest> kFlags[] = {
    {"--data", Str(&CliArgs::data_path)},
    // --query FILE (search, shard-run, run) and --input FILE (query,
    // ingest, serve-client) are the same thing: the reference payload.
    {"--query", Str(&CliArgs::query_path)},
    {"--input", Str(&CliArgs::query_path)},
    {"--out", Str(&CliArgs::out_path)},
    {"--snapshot", Str(&CliArgs::snapshot_path)},
    {"--shard", Long(&CliArgs::shard)},
    {"--metric", Enum(&Options::metric, kMetricNames)},
    {"--phi", Enum(&Options::phi, kPhiNames)},
    {"--delta", Double(&Options::delta)},
    {"--alpha", Double(&Options::alpha)},
    {"--q", Int(&Options::q)},
    {"--scheme", Enum(&Options::scheme, kSchemeNames)},
    {"--threads", Int(&Options::num_threads)},
    {"--shards", {true, [](CliArgs& a, const char* flag, const char* v) {
                    a.shards_set = true;
                    return Int(&Options::num_shards).set(a, flag, v);
                  }}},
    {"--stats", Switch(&CliArgs::stats)},
    {"--oracle-check", Switch(&CliArgs::oracle_check)},
    {"--split", Switch(&CliArgs::split)},
    {"--copy-load", Switch(&CliArgs::copy_load)},
    {"--approx-scores", Switch(&Options::exact_scores, false)},
    {"--top-k", {true, [](CliArgs& a, const char* flag, const char* v) {
                   if (!ParseLong(flag, v, &a.top_k)) return false;
                   if (a.top_k > 0) return true;
                   std::fprintf(stderr,
                                "invalid --top-k value: %s (must be > 0)\n", v);
                   return false;
                 }}},
    {"--jobs", Long(&CliArgs::jobs)},
    {"--retries", Long(&CliArgs::retries)},
    {"--shard-deadline", Double(&CliArgs::shard_deadline)},
    {"--backoff-base", Double(&CliArgs::backoff_base)},
    {"--backoff-cap", Double(&CliArgs::backoff_cap)},
    {"--backoff-seed", {true, [](CliArgs& a, const char* flag, const char* v) {
                          long seed = 0;
                          if (!ParseLong(flag, v, &seed)) return false;
                          a.backoff_seed =
                              static_cast<unsigned long long>(seed);
                          return true;
                        }}},
    {"--allow-partial", Switch(&CliArgs::allow_partial)},
    {"--report", Str(&CliArgs::report_path)},
    {"--workdir", Str(&CliArgs::workdir)},
    {"--keep-workdir", Switch(&CliArgs::keep_workdir)},
    // Hidden, test-only: arm a SILKMOTH_FAULT spec in one worker attempt
    // (see src/snapshot/orchestrator.h, FaultPlan). Repeatable.
    {"--inject", {true, [](CliArgs& a, const char*, const char* v) {
                    FaultPlan plan;
                    const std::string err = ParseFaultPlan(v, &plan);
                    if (!err.empty()) {
                      std::fprintf(stderr, "invalid --inject value: %s\n",
                                   err.c_str());
                      return false;
                    }
                    a.injections.push_back(plan);
                    return true;
                  }}},
    {"--workload", Str(&CliArgs::workload)},
    {"--json", Str(&CliArgs::json_path)},
    {"--list", Switch(&CliArgs::list_workloads)},
    {"--requests", Long(&CliArgs::bench_requests)},
    {"--batch", Long(&CliArgs::bench_batch)},
    {"--workers", Long(&CliArgs::bench_workers)},
    {"--duration", Double(&CliArgs::bench_duration)},
    {"--seed", Long(&CliArgs::bench_seed)},
    {"--listen", Str(&CliArgs::listen_path)},
    {"--stdio", Switch(&CliArgs::stdio)},
    {"--max-queue", Long(&CliArgs::max_queue)},
    {"--max-inflight", Long(&CliArgs::max_inflight)},
    {"--max-frame", Long(&CliArgs::max_frame)},
    {"--request-deadline", Double(&CliArgs::request_deadline)},
    {"--connect", Str(&CliArgs::connect_path)},
    {"--ping", Switch(&CliArgs::ping)},
    {"--shutdown", Switch(&CliArgs::shutdown_frame)},
    {"--delta-out", Str(&CliArgs::delta_out_path)},
    {"--delta-file", Str(&CliArgs::delta_file_path)},
    {"--ingest", Str(&CliArgs::ingest_path)},
};

bool ParseArgs(int argc, char** argv, int start, CliArgs* args) {
  for (int i = start; i < argc; ++i) {
    const char* arg = argv[i];
    const auto* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [arg](const auto& row) { return std::strcmp(row.first, arg) == 0; });
    if (flag == std::end(kFlags)) {
      if (arg[0] == '-') {
        std::fprintf(stderr, "unknown option: %s\n", arg);
        return false;
      }
      args->inputs.push_back(arg);
      continue;
    }
    const Dest& dest = flag->second;
    if (dest.takes_value && i + 1 >= argc) return false;
    const char* v = dest.takes_value ? argv[++i] : nullptr;
    if (!dest.set(*args, arg, v)) return false;
  }
  return true;
}

int Generate(int argc, char** argv) {
  if (argc < 5) return Usage(argv[0]);
  const std::string kind = argv[2];
  long n = 0;
  if (!ParseLong("N", argv[3], &n)) return Usage(argv[0]);
  if (n < 0) {
    Invalid("N", argv[3]);
    return Usage(argv[0]);
  }
  const size_t count = static_cast<size_t>(n);
  const std::string out = argv[4];
  RawSets sets;
  if (kind == "dblp") {
    DblpParams p;
    p.num_titles = count;
    sets = GenerateDblpSets(p);
  } else if (kind == "schema") {
    sets = GenerateSchemaSets(SchemaMatchingDefaults(count));
  } else if (kind == "columns") {
    sets = GenerateColumnSets(InclusionDependencyDefaults(count));
  } else {
    return Usage(argv[0]);
  }
  if (!SaveRawSets(sets, out)) return Fail(CliExit::kIo, "cannot write " + out);
  std::printf("wrote %zu sets to %s\n", sets.size(), out.c_str());
  return ExitCode(CliExit::kOk);
}

/// LoadRawSets with the "cannot read FILE" diagnostic on failure.
bool ReadSets(const std::string& path, RawSets* raw) {
  if (LoadRawSets(path, raw)) return true;
  std::fprintf(stderr, "cannot read %s\n", path.c_str());
  return false;
}

/// Loads + tokenizes the --data file per the parsed options.
bool LoadData(const CliArgs& args, Collection* data, TokenizerKind* tk) {
  RawSets raw;
  if (!ReadSets(args.data_path, &raw)) return false;
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

/// Opens --snapshot the one way every snapshot-reading subcommand does:
/// zero-copy mmap unless --copy-load, only shard `shard`'s index when
/// `shard` >= 0, loader errors mapped through LoadErrorExit. `print_load`
/// prints the `# load:` summary; `check_compat` refuses query options the
/// snapshot's tokenization cannot serve. Returns 0 or the diagnosed exit
/// code.
int OpenSnapshot(const CliArgs& args, Snapshot* snap, bool check_compat,
                 bool print_load, long shard = -1) {
  WallTimer timer;
  SnapshotLoadStats stats;
  const SnapshotLoadMode mode =
      args.copy_load ? SnapshotLoadMode::kCopy : SnapshotLoadMode::kMmap;
  const std::string err =
      shard < 0 ? LoadSnapshot(args.snapshot_path, snap, mode, &stats)
                : LoadSnapshotShard(args.snapshot_path,
                                    static_cast<uint64_t>(shard), snap, mode,
                                    &stats);
  if (!err.empty()) return Fail(LoadErrorExit(err), err);
  if (print_load) {
    std::printf("# load: %" PRIu64 " files, %" PRIu64 " bytes mapped, %" PRIu64
                " bytes copied in %.3fs\n",
                stats.files, stats.bytes_mapped, stats.bytes_copied,
                timer.ElapsedSeconds());
  }
  if (!check_compat) return 0;
  const std::string compat_err = CheckSnapshotCompatible(*snap, args.opt);
  return compat_err.empty() ? 0 : Fail(CliExit::kIncompatible, compat_err);
}

/// The q-gram length a snapshot was tokenized with (0 for word tokens).
int SnapshotQ(const Snapshot& snap) {
  return snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
}

/// Prints a pair stream, one AppendPairLine line per pair.
void PrintPairs(const std::vector<PairMatch>& pairs) {
  std::string out;
  for (const PairMatch& p : pairs) AppendPairLine(&out, p);
  std::fwrite(out.data(), 1, out.size(), stdout);
}

/// Prints the merge summary, the partial-coverage stamp when shards are
/// missing (comment lines ahead of the pairs, so a degraded merge is never
/// mistaken for a complete one), the pairs — exactly the discover output,
/// so merged runs diff clean against `discover --shards N` — and the stats.
void PrintMerged(size_t num_results, const std::vector<PairMatch>& pairs,
                 const MergeCoverage& cov, const ShardedSearchStats& stats,
                 bool show_stats) {
  std::printf("# merged %zu shard results: %zu pairs\n", num_results,
              pairs.size());
  // FormatCoverage is the one stamp formatter — the serve daemon's
  // DEADLINE_EXCEEDED bodies use it too, so the grammar cannot drift.
  if (!cov.complete) std::fputs(FormatCoverage(cov).c_str(), stdout);
  PrintPairs(pairs);
  if (show_stats) std::fputs(stats.ToString().c_str(), stdout);
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
  add("--metric", NameOf(kMetricNames, opt.metric));
  add("--phi", NameOf(kPhiNames, opt.phi));
  // %.17g round-trips a double exactly through the worker's strtod.
  std::snprintf(buf, sizeof(buf), "%.17g", opt.delta);
  add("--delta", buf);
  std::snprintf(buf, sizeof(buf), "%.17g", opt.alpha);
  add("--alpha", buf);
  if (opt.q > 0) add("--q", std::to_string(opt.q));
  add("--scheme", NameOf(kSchemeNames, opt.scheme));
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

/// The CLI's one file write: stages `bytes` next to `path` and commits them
/// atomically (the run report, the ingest delta rewrite, `bench --json`).
/// False, after a stderr diagnostic, on failure.
bool WriteFileAtomically(const std::string& path, const std::string& bytes) {
  AtomicFileWriter writer(path);
  std::string err = writer.Open();
  if (err.empty()) err = writer.Write(bytes);
  if (err.empty()) err = writer.Commit();
  if (err.empty()) return true;
  std::fprintf(stderr, "%s\n", err.c_str());
  return false;
}

/// The preparation `build` and `run` share: load + tokenize --data, index
/// it into --shards shards, and save it to `path` (split with --split).
/// `*seconds` times indexing + saving. Returns 0 or the diagnosed exit code.
int BuildAndSave(const CliArgs& args, const std::string& path, Snapshot* snap,
                 double* seconds) {
  Collection data;
  TokenizerKind tk;
  if (!LoadData(args, &data, &tk)) return ExitCode(CliExit::kIo);
  const int q = tk == TokenizerKind::kQGram ? args.opt.EffectiveQ() : 0;
  WallTimer timer;
  *snap = BuildSnapshot(std::move(data), tk, q,
                        static_cast<uint32_t>(args.opt.num_shards),
                        args.opt.num_threads);
  const std::string err = args.split ? SaveSnapshotSplit(*snap, path)
                                     : SaveSnapshot(*snap, path);
  if (!err.empty()) return Fail(CliExit::kIo, err);
  *seconds = timer.ElapsedSeconds();
  return 0;
}

/// Lists the per-shard files of a split snapshot at `path`.
void PrintShardFiles(const std::string& path, uint32_t num_shards) {
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::printf("# shard file %s\n", SnapshotShardPath(path, s).c_str());
  }
}

// build: tokenize + index + write snapshot. One process does the expensive
// preparation; any number of shard-run processes reuse it with zero
// re-tokenization.
int RunBuild(const CliArgs& args, const char*) {
  Snapshot snap;
  double seconds = 0.0;
  if (const int rc = BuildAndSave(args, args.out_path, &snap, &seconds)) {
    return rc;
  }
  std::printf("# wrote %s snapshot %s: %zu sets, %zu tokens, %zu shards "
              "in %.3fs\n",
              args.split ? "split" : "monolithic", args.out_path.c_str(),
              snap.data.NumSets(), snap.data.dict->size(), snap.num_shards(),
              seconds);
  if (args.split) {
    PrintShardFiles(args.out_path, static_cast<uint32_t>(snap.num_shards()));
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
  if (!ReadSets(path, &raw)) return false;
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

/// Prints a discovery result: the pair count and wall time, then the pairs.
void PrintDiscovery(const std::vector<PairMatch>& pairs,
                    const WallTimer& timer) {
  std::printf("# %zu related pairs in %.3fs\n", pairs.size(),
              timer.ElapsedSeconds());
  PrintPairs(pairs);
}

// shard-run: load a snapshot, execute discovery for one shard id — the
// snapshot's own self-join, or with --query an external payload streamed
// against the shard — and persist the sorted PairMatch stream + stats.
int RunShard(const CliArgs& args, const char*) {
  // Worker-side fault hook (a no-op unless SILKMOTH_FAULT arms it):
  // kill/abort/sleep execute inside Hit(); a `fail` outcome exits cleanly
  // non-zero so the orchestrator sees a plain worker failure.
  if (fault::Hit("worker-start").kind == fault::Outcome::kFail) {
    return Fail(CliExit::kIo, "injected worker-start failure");
  }
  // Shard-local load: on a split snapshot this maps exactly two files —
  // common + this shard — so worker startup scales with the shard size.
  Snapshot snap;
  if (const int rc = OpenSnapshot(args, &snap, /*check_compat=*/true,
                                  /*print_load=*/true, args.shard)) {
    return rc;
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
    if (!LoadQueryBlock(args.query_path, snap.tokenizer, SnapshotQ(snap),
                        snap.data, &query, &block)) {
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
  if (!save_err.empty()) return Fail(CliExit::kIo, save_err);
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
  if (!ReadSets(path, &raw)) return false;
  const std::string err = delta->Ingest(raw);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return false;
  }
  std::printf("# delta %s: %zu sets, %zu oov tokens\n", path.c_str(),
              delta->delta_sets(), delta->oov_tokens());
  return true;
}

// query / discover --snapshot: discovery over a prebuilt snapshot in one
// process. Every shard is loaded (zero-copy mmap by default) and an
// optional --delta-file replays ingested sets as one extra in-memory shard.
// `query` tokenizes the --input payload against the snapshot's dictionary
// and streams it through every shard — the build → shard-run --query →
// merge pipeline produces the byte-identical stream. `discover --snapshot`
// self-joins the corpus; its pair stream over (base + delta) equals the
// stream over the compacted snapshot of the same state.
int RunSnapshotRead(const CliArgs& args, bool query_mode) {
  Snapshot snap;
  if (const int rc = OpenSnapshot(args, &snap, /*check_compat=*/true,
                                  /*print_load=*/query_mode)) {
    return rc;
  }
  // Delta replay happens *before* query tokenization, so the payload sees
  // delta-interned token ids — the same dictionary state a compacted
  // snapshot would present.
  DeltaShard delta(&snap.data, snap.tokenizer, SnapshotQ(snap));
  if (!ReplayDeltaFile(args.delta_file_path, &delta)) {
    return ExitCode(CliExit::kIo);
  }
  const Collection& corpus =
      delta.delta_sets() > 0 ? delta.combined() : snap.data;
  Collection query;
  ReferenceBlock block = ReferenceBlock::SelfJoin(corpus);
  if (query_mode) {
    if (!LoadQueryBlock(args.query_path, snap.tokenizer, SnapshotQ(snap),
                        corpus, &query, &block)) {
      return ExitCode(CliExit::kIo);
    }
  } else {
    std::printf("# snapshot %s: generation %llu, %zu base sets + %zu delta "
                "sets\n",
                args.snapshot_path.c_str(),
                static_cast<unsigned long long>(snap.generation),
                snap.data.NumSets(), delta.delta_sets());
  }

  std::vector<ShardView> views(snap.num_shards());
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    views[s] = ShardView{snap.shards[s].range, &snap.shards[s].index};
  }
  if (delta.delta_sets() > 0) views.push_back(delta.View());
  ShardedSearchStats stats;
  stats.Reset(views.size());
  WallTimer timer;
  const std::vector<PairMatch> pairs =
      DiscoverAcrossShards(block, corpus, views, args.opt, &stats);
  PrintDiscovery(pairs, timer);
  if (args.oracle_check) {
    BruteForce oracle(&corpus, args.opt);
    PrintOracleAgreement(
        pairs, query_mode ? oracle.Discover(query) : oracle.DiscoverSelf(),
        args.opt.exact_scores);
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
int RunIngest(const CliArgs& args, const char*) {
  if (args.snapshot_path.empty() || args.query_path.empty() ||
      args.delta_out_path.empty()) {
    return Fail(CliExit::kUsage,
                "ingest needs --snapshot, --input, and --delta-out");
  }
  Snapshot snap;
  if (const int rc = OpenSnapshot(args, &snap, false, false)) return rc;
  RawSets existing;
  if (std::filesystem::exists(args.delta_out_path) &&
      !ReadSets(args.delta_out_path, &existing)) {
    return ExitCode(CliExit::kIo);
  }
  RawSets batch;
  if (!ReadSets(args.query_path, &batch)) return ExitCode(CliExit::kIo);

  DeltaShard delta(&snap.data, snap.tokenizer, SnapshotQ(snap));
  std::string err = delta.Ingest(existing);
  if (err.empty()) {
    const size_t oov_before = delta.oov_tokens();
    err = delta.Ingest(batch);
    if (err.empty()) {
      std::printf("# ingested %zu sets (%zu new tokens)\n", batch.size(),
                  delta.oov_tokens() - oov_before);
    }
  }
  if (!err.empty()) return Fail(CliExit::kUsage, err);

  RawSets all = std::move(existing);
  all.insert(all.end(), batch.begin(), batch.end());
  std::ostringstream body;
  WriteRawSets(all, body);
  if (!WriteFileAtomically(args.delta_out_path, body.str())) {
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
int RunCompact(const CliArgs& args, const char*) {
  if (args.snapshot_path.empty() || args.out_path.empty()) {
    return Fail(CliExit::kUsage, "compact needs --snapshot and --out");
  }
  if (args.shards_set && args.opt.num_shards < 1) {
    return Fail(CliExit::kUsage, "compact: --shards must be >= 1");
  }
  Snapshot snap;
  if (const int rc = OpenSnapshot(args, &snap, false, false)) return rc;
  DeltaShard delta(&snap.data, snap.tokenizer, SnapshotQ(snap));
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
  if (!err.empty()) return Fail(CliExit::kIo, err);
  std::printf("# compacted %s -> %s %s: generation %llu, %llu sets "
              "(%llu from delta), %u shards in %.3fs\n",
              args.snapshot_path.c_str(),
              args.split ? "split" : "monolithic", args.out_path.c_str(),
              static_cast<unsigned long long>(res.generation),
              static_cast<unsigned long long>(res.total_sets),
              static_cast<unsigned long long>(res.delta_sets),
              res.num_shards, timer.ElapsedSeconds());
  if (args.split) PrintShardFiles(args.out_path, res.num_shards);
  return ExitCode(CliExit::kOk);
}

// merge: k-way merge shard result streams into the exact discover output.
// With --allow-partial an incomplete set of results merges anyway, with the
// coverage stamped ahead of the pairs and exit code kPartialResult.
int RunMerge(const CliArgs& args, const char*) {
  if (args.inputs.empty()) {
    return Fail(CliExit::kUsage,
                "merge needs at least one shard result file");
  }
  std::vector<ShardResult> results(args.inputs.size());
  for (size_t i = 0; i < args.inputs.size(); ++i) {
    const std::string err = LoadShardResult(args.inputs[i], &results[i]);
    if (!err.empty()) return Fail(LoadErrorExit(err), err);
  }
  std::vector<PairMatch> pairs;
  ShardedSearchStats stats;
  MergeCoverage cov;
  const std::string err =
      MergeShardResults(results, &pairs, &stats,
                        MergeOptions{args.allow_partial}, &cov);
  if (!err.empty()) return Fail(CliExit::kIncompatible, err);
  PrintMerged(results.size(), pairs, cov, stats, args.stats);
  return ExitCode(cov.complete ? CliExit::kOk : CliExit::kPartialResult);
}

// serve: the resident daemon — load a snapshot once, then answer query
// payloads over the frame protocol until SIGTERM/SIGINT, a shutdown frame,
// or (stdio transport) EOF. See src/serve/server.h for the threading model
// and docs/CLI.md, "serve" for the frame grammar.
int RunServe(const CliArgs& args, const char*) {
  if (args.max_queue <= 0 || args.max_inflight <= 0 || args.max_frame <= 0 ||
      args.request_deadline < 0.0 ||
      (args.bench_workers != -1 && args.bench_workers <= 0)) {
    return Fail(CliExit::kUsage,
                "serve: --workers/--max-queue/--max-inflight/--max-frame "
                "must be positive and --request-deadline non-negative");
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
  if (!err.empty()) return Fail(LoadErrorExit(err), err);
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
int RunServeClient(const CliArgs& args, const char*) {
#if SILKMOTH_CLI_HAVE_UNISTD
  if (args.connect_path.empty()) {
    return Fail(CliExit::kUsage, "serve-client needs --connect SOCK");
  }
  const int want = (args.ping ? 1 : 0) + (args.shutdown_frame ? 1 : 0) +
                   (args.query_path.empty() ? 0 : 1) +
                   (args.ingest_path.empty() ? 0 : 1);
  if (want != 1) {
    return Fail(CliExit::kUsage,
                "serve-client needs exactly one of --ping, --shutdown, "
                "--input FILE, or --ingest FILE");
  }

  serve::Frame req;
  req.request_id = 1;
  if (args.ping) {
    req.type = serve::FrameType::kPing;
  } else if (args.shutdown_frame) {
    req.type = serve::FrameType::kShutdown;
  } else {
    const bool ingest = !args.ingest_path.empty();
    req.type = ingest ? serve::FrameType::kIngest : serve::FrameType::kQuery;
    RawSets raw;
    if (!ReadSets(ingest ? args.ingest_path : args.query_path, &raw)) {
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
    return Fail(CliExit::kUsage,
                "serve-client: socket path too long: " + args.connect_path);
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
      ::close(fd);
      return Fail(CliExit::kIo,
                  "serve-client: connection closed before a response frame "
                  "arrived");
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
      return Fail(CliExit::kWorkerFailure,
                  "serve-client: request shed (overloaded)");
    case serve::FrameType::kDeadlineExceeded:
      return Fail(CliExit::kPartialResult,
                  "serve-client: deadline exceeded (partial coverage "
                  "stamped above)");
    default:
      std::fprintf(stderr, "serve-client: server error frame (%s)\n",
                   serve::FrameTypeName(resp.type));
      return ExitCode(CliExit::kCorruptInput);
  }
#else
  (void)args;
  return Fail(CliExit::kIo, "serve-client needs POSIX sockets");
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
  if (args.jobs < 0 || args.retries < 0 || args.shard_deadline < 0 ||
      args.backoff_base < 0 || args.backoff_cap < 0) {
    return Fail(CliExit::kUsage,
                "run: --jobs/--retries/--shard-deadline/--backoff-* must be "
                "non-negative");
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
    if (workdir.empty()) return Fail(CliExit::kIo, dir_err);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(workdir, ec);
    if (ec) {
      return Fail(CliExit::kIo,
                  "cannot create workdir " + workdir + ": " + ec.message());
    }
  }
  std::printf("# workdir %s\n", workdir.c_str());

  // Build phase, in-process — the same preparation `build` does.
  Snapshot snap;
  double build_seconds = 0.0;
  const std::string snap_path = workdir + "/corpus.snap";
  if (const int rc = BuildAndSave(args, snap_path, &snap, &build_seconds)) {
    return rc;
  }
  std::printf("# built snapshot: %zu sets, %zu shards in %.3fs\n",
              snap.data.NumSets(), snap.num_shards(), build_seconds);

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
  if (!sup_err.empty()) return Fail(CliExit::kIo, sup_err);

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
    if (!WriteFileAtomically(
            args.report_path,
            BuildRunReportJson(report, stats, num_pairs, partial) + "\n")) {
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
  // Byte-identical to `discover --shards N` when every shard arrived (the
  // cross-process parity contract).
  PrintMerged(results.size(), pairs, cov, stats, args.stats);

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
int RunBench(const CliArgs& args, const char*) {
  using bench::WorkloadSpec;
  if (args.list_workloads) {
    std::printf("%-26s %s\n", "name", "scenario");
    for (const WorkloadSpec& spec : bench::AllWorkloads()) {
      std::printf("%-26s %s\n", spec.name.c_str(), spec.scenario.c_str());
    }
    return ExitCode(CliExit::kOk);
  }
  if (args.workload.empty()) {
    return Fail(CliExit::kUsage, "bench needs --workload NAME (or --list)");
  }
  const WorkloadSpec* found = bench::FindWorkload(args.workload);
  if (found == nullptr) {
    return Fail(CliExit::kUsage, "unknown workload: " + args.workload +
                                     " (try `bench --list`)");
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
    return Fail(CliExit::kUsage,
                "bench: --requests/--batch/--workers/--duration/--seed must "
                "be positive");
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
  if (!err.empty()) return Fail(CliExit::kUsage, err);

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
    if (!WriteFileAtomically(args.json_path,
                             bench::BenchResultToJson(result))) {
      return ExitCode(CliExit::kIo);
    }
    std::printf("# bench report -> %s\n", args.json_path.c_str());
  }
  return ExitCode(CliExit::kOk);
}

// discover / search over --data in one process: the SilkMoth engine over
// --shards in-memory shard indexes. `search` streams each --query set as
// one RELATED SET SEARCH (the K best with --top-k).
int RunInProcess(const CliArgs& args, bool search) {
  if (args.top_k > 0 && !search) {
    return Fail(CliExit::kUsage, "--top-k only applies to search");
  }
  if (args.top_k > 0 && args.opt.num_shards >= 2) {
    return Fail(CliExit::kUsage,
                "--top-k serving is single-index; drop --shards");
  }
  Collection data;
  TokenizerKind tk;
  if (!LoadData(args, &data, &tk)) return ExitCode(CliExit::kIo);

  const SilkMoth engine(&data, args.opt);
  if (!engine.ok()) {
    return Fail(CliExit::kUsage, "invalid options: " + engine.error());
  }
  const bool sharded = engine.num_shards() >= 2;
  if (sharded) {
    std::printf("# sharded engine: %zu shards\n", engine.num_shards());
  }

  WallTimer timer;
  ShardedSearchStats stats;
  if (!search) {
    const std::vector<PairMatch> pairs = engine.DiscoverSelf(&stats);
    PrintDiscovery(pairs, timer);
    if (args.oracle_check) {
      BruteForce oracle(&data, args.opt);
      PrintOracleAgreement(pairs, oracle.DiscoverSelf(),
                           args.opt.exact_scores);
    }
  } else {
    RawSets query_raw;
    if (!LoadRawSets(args.query_path, &query_raw) || query_raw.empty()) {
      return Fail(CliExit::kIo, "cannot read " + args.query_path);
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

/// A subcommand handler: 0 to go on (for `needs`) or an exit code.
using Handler = int (*)(const CliArgs& args, const char* argv0);

/// One subcommand. `needs` (optional) checks the required inputs first, so
/// a missing input is reported ahead of bad query options; then, for
/// `validate` rows, Options::Validate() gates the query options; then `run`.
struct Subcommand {
  const char* name;
  bool validate;
  Handler needs;
  Handler run;
};

const Subcommand kSubcommands[] = {
    {"discover", true,
     [](const CliArgs& a, const char* argv0) {
       if (a.snapshot_path.empty()) {
         return a.data_path.empty() ? Usage(argv0) : 0;
       }
       return a.shards_set ? Fail(CliExit::kUsage,
                                  "discover --snapshot takes its partition "
                                  "from the snapshot; drop --shards")
                           : 0;
     },
     [](const CliArgs& a, const char*) {
       return a.snapshot_path.empty() ? RunInProcess(a, false)
                                      : RunSnapshotRead(a, false);
     }},
    {"search", true,
     [](const CliArgs& a, const char* argv0) {
       return a.data_path.empty() || a.query_path.empty() ? Usage(argv0) : 0;
     },
     [](const CliArgs& a, const char*) { return RunInProcess(a, true); }},
    {"query", true,
     [](const CliArgs& a, const char*) {
       return a.snapshot_path.empty() || a.query_path.empty()
                  ? Fail(CliExit::kUsage, "query needs --snapshot and --input")
                  : 0;
     },
     [](const CliArgs& a, const char*) { return RunSnapshotRead(a, true); }},
    {"build", true,
     [](const CliArgs& a, const char*) {
       return a.data_path.empty() || a.out_path.empty()
                  ? Fail(CliExit::kUsage, "build needs --data and --out")
                  : 0;
     },
     RunBuild},
    {"ingest", false, nullptr, RunIngest},
    {"compact", false, nullptr, RunCompact},
    {"shard-run", true,
     [](const CliArgs& a, const char*) {
       if (a.snapshot_path.empty()) {
         return Fail(CliExit::kUsage, "shard-run needs --snapshot");
       }
       if (a.shard < 0) {
         return Fail(CliExit::kUsage, "shard-run needs --shard K (0-based)");
       }
       return a.out_path.empty()
                  ? Fail(CliExit::kUsage, "shard-run needs --out")
                  : 0;
     },
     RunShard},
    {"merge", false, nullptr, RunMerge},
    {"run", true,
     [](const CliArgs& a, const char*) {
       return a.data_path.empty() ? Fail(CliExit::kUsage, "run needs --data")
                                  : 0;
     },
     RunRun},
    {"serve", true,
     [](const CliArgs& a, const char*) {
       if (a.snapshot_path.empty()) {
         return Fail(CliExit::kUsage, "serve needs --snapshot");
       }
       return a.listen_path.empty() == !a.stdio
                  ? Fail(CliExit::kUsage,
                         "serve needs exactly one of --listen SOCK or --stdio")
                  : 0;
     },
     RunServe},
    {"serve-client", false, nullptr, RunServeClient},
    {"bench", false, nullptr, RunBench},
};

/// The real main, wrapped so FinishStdout can audit stdout afterwards.
int RunMain(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "generate") return Generate(argc, argv);
  const auto* cmd =
      std::find_if(std::begin(kSubcommands), std::end(kSubcommands),
                   [&](const Subcommand& c) { return mode == c.name; });
  if (cmd == std::end(kSubcommands)) {
    return Fail(CliExit::kUsage, "unknown subcommand: " + mode);
  }

  CliArgs args;
  if (!ParseArgs(argc, argv, 2, &args)) return Usage(argv[0]);
  // Only merge takes positional arguments (its result files); anywhere else
  // a stray word is a mistake (a forgotten flag, a second data file) that
  // must not be silently ignored.
  if (mode != "merge" && !args.inputs.empty()) {
    return Fail(CliExit::kUsage, "unexpected argument: " + args.inputs.front());
  }
  if (cmd->needs != nullptr) {
    if (const int rc = cmd->needs(args, argv[0])) return rc;
  }
  if (cmd->validate) {
    const std::string err = args.opt.Validate();
    if (!err.empty()) return Fail(CliExit::kUsage, "invalid options: " + err);
  }
  return cmd->run(args, argv[0]);
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
