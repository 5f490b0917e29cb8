#include "workloads.h"

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/io.h"
#include "datagen/webtable.h"
#include "engine_replay.h"
#include "metrics.h"
#include "serve_load.h"
#include "snapshot/delta_shard.h"
#include "snapshot/snapshot.h"
#include "trace.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

using namespace silkmoth;

namespace {

// --- Workload shapes ------------------------------------------------------
// Fixed here, not in the config: they define what each workload measures.
// The seed picks the generated corpus and request stream, nothing else.

constexpr size_t kTitles = 8000;       // titles-eds-join corpus.
constexpr size_t kColumns = 20000;     // columns-topk-search corpus.
constexpr size_t kTopK = 10;
constexpr int kThreads = 4;            // Engine threads / search clients.
constexpr size_t kTraceQueries = 100;  // columns-topk-search traced replay.

// The serve probe, run in every traced run: a fresh `silkmoth_cli serve`
// daemon (kServeWorkers workers, unix socket) on a snapshot of kSchemas
// generated schemas, Jaccard similarity, driven open-loop at kProbeRate.
// The daemon's mixed query/ingest capacity on a shared 4-vCPU host is about
// 950 frames/s, so 250 frames/s is about a quarter of it: queues form only
// behind ingests. kProbeFrames (8 s) gives 1,900 queries and 100 ingests,
// so both tails come from real samples and the delta grows by 800 sets
// between the first and the last ingest. The request deadline is far above
// any latency the probe sees (tens of ms at worst), so only a stall counts.
constexpr size_t kSchemas = 20000;
constexpr int kServeWorkers = 2;
constexpr double kProbeRate = 250;     // Frames per second.
constexpr size_t kProbeFrames = 2000;
constexpr double kProbeDeadlineS = 1.0;  // --request-deadline.
constexpr double kPingIntervalS = 0.02;  // Queue-depth sampling.
constexpr size_t kIngestEvery = 20;    // Every 20th frame is an ingest (5%).
constexpr size_t kIngestSets = 8;      // Sets per ingest frame.
constexpr size_t kRefsPerQuery = 2;    // Reference sets per query frame.
constexpr size_t kCheckPayloads = 4;   // Quiescent byte-for-byte checks.
constexpr size_t kIngestEnds = 10;     // Ingests per snapshot.ingest_ms end.
// Set-up is repeated at least kMinSetupReps times and until kSetupSeconds
// are spent (at most kMaxSetupReps); setup_s is the median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 41;
constexpr double kSetupSeconds = 1.0;

Options JoinOptions() {
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.phi = SimilarityKind::kEds;
  o.delta = 0.7;
  o.alpha = 0.8;
  o.scheme = SignatureSchemeKind::kDichotomy;
  o.num_threads = kThreads;
  return o;
}

Options SearchOptions() {
  Options o;
  o.metric = Relatedness::kContainment;
  o.phi = SimilarityKind::kJaccard;
  o.delta = 0.05;
  o.alpha = 0.0;
  return o;
}

Options ServeOptions() {
  Options o;
  o.metric = Relatedness::kSimilarity;
  o.phi = SimilarityKind::kJaccard;
  o.delta = 0.7;
  o.alpha = 0.25;
  return o;
}

TokenizerKind TokenizerFor(const Options& o) {
  return IsEditSimilarity(o.phi) ? TokenizerKind::kQGram : TokenizerKind::kWord;
}

int QFor(const Options& o) {
  return IsEditSimilarity(o.phi) ? o.EffectiveQ() : 0;
}

/// The daemon flags that reproduce `o`.
std::vector<std::string> OptionFlags(const Options& o) {
  char d[32], a[32];
  std::snprintf(d, sizeof(d), "%.17g", o.delta);
  std::snprintf(a, sizeof(a), "%.17g", o.alpha);
  return {"--metric",
          o.metric == Relatedness::kContainment ? "containment" : "similarity",
          "--phi",
          o.phi == SimilarityKind::kEds ? "eds" : "jaccard",
          "--delta", d, "--alpha", a};
}

// --- Small helpers -------------------------------------------------------

double Now() { return NowNs() * 1e-9; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double SelfPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// FNV-1a over the canonical pair stream (ids and the exact bits of both
/// scores), the digest recorded per seed in perfbench/config.json.
std::string PairDigest(const std::vector<PairMatch>& pairs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const PairMatch& p : pairs) {
    mix(&p.ref_id, sizeof p.ref_id);
    mix(&p.set_id, sizeof p.set_id);
    mix(&p.matching_score, sizeof p.matching_score);
    mix(&p.relatedness, sizeof p.relatedness);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%zu-%016" PRIx64, pairs.size(), h);
  return buf;
}

bool SameScore(double a, double b) { return std::abs(a - b) <= 1e-9; }

/// Runs fn(i) for i in [0, n) on `threads` threads, contiguous chunks.
template <typename Fn>
void ParallelFor(size_t n, int threads, Fn fn) {
  std::vector<std::thread> pool;
  const size_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t * chunk; i < std::min(n, (t + 1) * chunk); ++i) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// A tokenized corpus with its index, as the engine needs it to serve.
struct Corpus {
  std::unique_ptr<Collection> data;
  std::unique_ptr<SilkMoth> engine;
};

bool MoreSetupReps(const std::vector<double>& reps) {
  double spent = 0.0;
  for (double r : reps) spent += r;
  const int n = static_cast<int>(reps.size());
  return n < kMinSetupReps || (spent < kSetupSeconds && n < kMaxSetupReps);
}

/// Tokenize + index build, repeated (MoreSetupReps); keeps the last. Returns
/// the seconds of every repetition. In a traced run the first repetition is
/// split into text.tokenize and index.build spans (timed on their own).
std::vector<double> SetUp(const RawSets& raw, const Options& opt, Corpus* out,
             SpanBuffer* spans, double* tokenize_s, double* index_s,
             size_t* postings) {
  std::vector<double> reps;
  for (int r = 0; MoreSetupReps(reps); ++r) {
    out->engine.reset();
    out->data.reset();
    const double t0 = Now();
    out->data = std::make_unique<Collection>(
        BuildCollection(raw, TokenizerFor(opt), QFor(opt)));
    const double t1 = Now();
    out->engine = std::make_unique<SilkMoth>(out->data.get(), opt);
    const double t2 = Now();
    reps.push_back(t2 - t0);
    if (r == 0 && spans != nullptr) {
      spans->Add(kSpanTokenize, -1, 0, static_cast<int64_t>(t0 * 1e9),
                 static_cast<int64_t>(t1 * 1e9));
      spans->Add(kSpanIndexBuild, -1, 0, static_cast<int64_t>(t1 * 1e9),
                 static_cast<int64_t>(t2 * 1e9));
    }
    if (tokenize_s != nullptr && r == 0) *tokenize_s = t1 - t0;
    if (index_s != nullptr && r == 0) *index_s = t2 - t1;
  }
  if (postings != nullptr) *postings = out->engine->index().TotalPostings();
  return reps;
}

/// setup_s of an untraced run: the median over the set-ups made before the
/// timed window (`before`) and as many again after it, so one run samples
/// the host at both ends of its measurement rather than in one burst.
double SetupSeconds(std::vector<double> before, const RawSets& raw,
                    const Options& opt) {
  Corpus again;
  const std::vector<double> after =
      SetUp(raw, opt, &again, nullptr, nullptr, nullptr, nullptr);
  before.insert(before.end(), after.begin(), after.end());
  return Median(before);
}

void AddLatency(RunReport* rep, const std::string& prefix,
                const std::vector<double>& ms) {
  const Tail t = TailOf(ms);
  rep->Add(prefix + "p50_ms", Median(ms), "ms");
  rep->Add(prefix + "tail_ms", t.value, "ms");
  char note[160];
  std::snprintf(note, sizeof(note), "%stail_ms is p%g of %zu samples",
                prefix.c_str(), t.percentile, t.samples);
  rep->notes.push_back(note);
}

// --- The serve probe -------------------------------------------------------

/// In-process answer to one query payload: exactly what the daemon's
/// Execute produces (one shard at a time, canonical order, pair lines).
std::string DirectAnswer(const Snapshot& snap, const DeltaShard* delta,
                         const std::string& body, const Options& opt) {
  const Collection& corpus = delta != nullptr ? delta->combined() : snap.data;
  std::vector<ShardView> views;
  for (const Snapshot::Shard& s : snap.shards) {
    views.push_back(ShardView{s.range, &s.index});
  }
  if (delta != nullptr && delta->delta_sets() > 0) views.push_back(delta->View());
  RawSets raw;
  std::istringstream in(body);
  ReadRawSets(in, &raw);
  Collection query;
  const ReferenceBlock block = BuildQueryBlock(
      raw, snap.tokenizer, snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0,
      corpus, &query);
  std::vector<PairMatch> pairs;
  for (const ShardView& v : views) {
    ShardedSearchStats one;
    one.Reset(1);
    std::vector<PairMatch> part = DiscoverAcrossShards(
        block, corpus, std::span<const ShardView>(&v, 1), opt, &one);
    pairs.insert(pairs.end(), part.begin(), part.end());
  }
  std::sort(pairs.begin(), pairs.end(), PairMatchIdLess);
  std::string out;
  char buf[96];
  for (const PairMatch& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%u\t%u\t%.6f\t%.6f\n", p.ref_id, p.set_id,
                  p.matching_score, p.relatedness);
    out += buf;
  }
  return out;
}

std::string Payload(const RawSets& sets) {
  std::ostringstream out;
  WriteRawSets(sets, out);
  return out.str();
}

/// The probe's open-loop frame schedule: kProbeFrames frames spaced
/// 1/kProbeRate apart; one frame in kIngestEvery ingests the next
/// kIngestSets pool sets, the rest query kRefsPerQuery corpus sets drawn
/// zipf(0.99) (rank → set id through a seeded permutation).
struct Scheduler {
  const RawSets* corpus = nullptr;
  const RawSets* pool = nullptr;
  std::vector<uint32_t> perm;
  std::unique_ptr<ZipfDistribution> zipf;
  std::unique_ptr<Rng> rng;

  Scheduler(const RawSets* c, const RawSets* p, uint64_t seed)
      : corpus(c), pool(p) {
    rng = std::make_unique<Rng>(seed * 0x9E3779B97F4A7C15ull + 17);
    perm.resize(c->size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng->Shuffle(&perm);
    zipf = std::make_unique<ZipfDistribution>(c->size(), 0.99);
  }

  PlannedOp Query() {
    PlannedOp op;
    RawSets sets;
    for (size_t j = 0; j < kRefsPerQuery; ++j) {
      const uint32_t id = perm[zipf->Sample(rng.get())];
      sets.push_back((*corpus)[id]);
      op.expect.push_back(id);
    }
    op.body = Payload(sets);
    return op;
  }

  std::vector<PlannedOp> Plan() {
    std::vector<PlannedOp> plan;
    size_t pool_next = 0;
    for (size_t i = 0; i < kProbeFrames; ++i) {
      PlannedOp op;
      if (i % kIngestEvery == kIngestEvery / 2) {
        op.ingest = true;
        RawSets batch(pool->begin() + pool_next,
                      pool->begin() + pool_next + kIngestSets);
        pool_next += kIngestSets;
        op.body = Payload(batch);
        op.expect = {static_cast<uint32_t>(pool_next)};
      } else {
        op = Query();
      }
      op.offset_s = static_cast<double>(i) / kProbeRate;
      plan.push_back(std::move(op));
    }
    return plan;
  }
};

/// Everything the serve probe measures.
struct ServeOutcome {
  PhaseResult phase;
  std::vector<PlannedOp> plan;
  std::string final_pong;
  double snapshot_build_s = 0.0, snapshot_load_s = 0.0;
  uint64_t snapshot_bytes = 0;
  std::vector<double> ingest_replay_ms;  // In-process, same schedule.
  std::vector<double> direct_ms;         // In-process answers, pre-ingest.
};

/// Builds the snapshot of `base`, starts the daemon, checks quiescent
/// answers before and after the phase byte for byte against in-process
/// answers, runs the open-loop phase (request ids from `first_request_id`),
/// and replays the same ingest schedule in-process.
bool RunServe(const RunConfig& cfg, const RawSets& base, const RawSets& pool,
              uint64_t first_request_id, RunReport* rep, ServeOutcome* out,
              SpanBuffer* spans, std::string* err) {
  const Options opt = ServeOptions();
  const std::string snap_path = cfg.work_dir + "/corpus.snap";
  {
    Collection data = BuildCollection(base, TokenizerFor(opt), QFor(opt));
    const int64_t b0 = NowNs();
    Snapshot snap = BuildSnapshot(std::move(data), TokenizerFor(opt),
                                  QFor(opt), 1, 1);
    const int64_t b1 = NowNs();
    const std::string e = SaveSnapshot(snap, snap_path);
    const int64_t b2 = NowNs();
    if (!e.empty()) {
      *err = "snapshot save: " + e;
      return false;
    }
    out->snapshot_build_s = (b1 - b0) * 1e-9;
    spans->Add(kSpanSnapshotBuild, -1, 0, b0, b1);
    spans->Add(kSpanSnapshotSave, -1, 0, b1, b2);
  }
  out->snapshot_bytes = FileBytes(snap_path);

  const std::string sock = cfg.work_dir + "/serve.sock";
  char deadline[32];
  std::snprintf(deadline, sizeof(deadline), "%g", kProbeDeadlineS);
  std::vector<std::string> argv = {
      cfg.cli_path,        "serve",    "--snapshot",
      snap_path,           "--listen", sock,
      "--workers",         std::to_string(kServeWorkers),
      "--request-deadline", deadline};
  for (const std::string& f : OptionFlags(opt)) argv.push_back(f);
  Daemon daemon;
  if (!daemon.Start(argv, sock, cfg.work_dir + "/serve.log", err)) return false;

  Snapshot direct;
  const int64_t l0 = NowNs();
  const std::string le = LoadSnapshot(snap_path, &direct);
  const int64_t l1 = NowNs();
  if (!le.empty()) {
    *err = "snapshot load: " + le;
    return false;
  }
  out->snapshot_load_s = (l1 - l0) * 1e-9;
  spans->Add(kSpanSnapshotLoad, -1, 0, l0, l1);

  Scheduler sched(&base, &pool, cfg.seed);
  std::vector<PlannedOp> checks;
  for (size_t i = 0; i < kCheckPayloads; ++i) checks.push_back(sched.Query());
  auto check_quiescent = [&](const DeltaShard* delta, const char* when) {
    Conn c;
    const bool connected = c.Connect(sock);
    for (size_t i = 0; i < checks.size(); ++i) {
      serve::Frame req;
      req.type = serve::FrameType::kQuery;
      req.request_id = first_request_id + kProbeFrames + i;
      req.body = checks[i].body;
      serve::Frame resp;
      const bool got = connected && c.Call(req, &resp, 30.0);
      const std::string want = DirectAnswer(direct, delta, checks[i].body, opt);
      rep->Check(got && resp.type == serve::FrameType::kResult &&
                     resp.body == want,
                 std::string("serve answer ") + when + " differs from the "
                 "in-process answer (payload " + std::to_string(i) + ")");
    }
  };
  check_quiescent(nullptr, "before the first ingest");

  out->plan = sched.Plan();

  // In-process answer cost on the phase's own query payloads, timed before
  // any ingest while the daemon is idle.
  size_t timed = 0;
  for (const PlannedOp& op : out->plan) {
    if (op.ingest) continue;
    if (++timed > 32) break;
    const int64_t d0 = NowNs();
    DirectAnswer(direct, nullptr, op.body, opt);
    const int64_t d1 = NowNs();
    out->direct_ms.push_back((d1 - d0) * 1e-6);
    spans->Add(kSpanDirect, -1, 0, d0, d1);
  }

  Conn conn, ping_conn;
  if (!conn.Connect(sock) || !ping_conn.Connect(sock)) {
    *err = "cannot connect to the serve daemon";
    return false;
  }
  out->phase = RunOpenLoopPhase(&conn, &ping_conn, out->plan, first_request_id,
                                kPingIntervalS, 30.0);

  // In-process replay of the same ingest schedule, as the daemon applies it.
  std::shared_ptr<const DeltaShard> delta;
  for (const PlannedOp& op : out->plan) {
    if (!op.ingest) continue;
    RawSets raw;
    std::istringstream in(op.body);
    ReadRawSets(in, &raw);
    std::string e;
    const int64_t i0 = NowNs();
    if (delta == nullptr) {
      auto fresh =
          std::make_shared<DeltaShard>(&direct.data, direct.tokenizer, direct.q);
      e = fresh->Ingest(raw);
      delta = fresh;
    } else {
      delta = delta->WithIngested(raw, &e);
    }
    const int64_t i1 = NowNs();
    if (delta == nullptr || !e.empty()) {
      *err = "in-process ingest failed: " + e;
      return false;
    }
    out->ingest_replay_ms.push_back((i1 - i0) * 1e-6);
    spans->Add(kSpanIngest, -1, 0, i0, i1);
  }
  check_quiescent(delta.get(), "after the last ingest");

  out->final_pong = daemon.Ping();
  const long long delta_sets = JsonInt(out->final_pong, "delta_sets");
  rep->Check(delta_sets ==
                 static_cast<long long>(delta ? delta->delta_sets() : 0),
             "final pong delta_sets " + std::to_string(delta_sets) +
                 " != ingested total");
  rep->Check(daemon.Stop(), "serve daemon did not exit cleanly");

  for (size_t i = 0; i < out->phase.ops.size(); ++i) {
    const OpOutcome& o = out->phase.ops[i];
    rep->Check(o.op.answered && o.op.ok,
               std::string(o.ingest ? "ingest" : "query") + " frame " +
                   std::to_string(i) +
                   (o.op.answered ? " answered wrongly (type " +
                                        std::to_string(o.response_type) + ")"
                                  : " unanswered"));
    const int64_t due = static_cast<int64_t>(o.op.due * 1e9);
    const int64_t done =
        static_cast<int64_t>((o.op.answered ? o.op.done : o.op.due) * 1e9);
    const int64_t req = spans->Add(kSpanRequest, -1, o.request_id, due, done);
    const int64_t sent = static_cast<int64_t>(o.op.sent * 1e9);
    spans->Add(kSpanEncode, req, o.request_id, sent,
               sent + static_cast<int64_t>(o.encode_us * 1e3));
    spans->Add(kSpanDecode, req, o.request_id,
               done - static_cast<int64_t>(o.decode_us * 1e3), done);
  }
  return true;
}

std::vector<OpenLoopOp> PhaseOps(const PhaseResult& ph, bool ingest) {
  std::vector<OpenLoopOp> ops;
  for (const OpOutcome& o : ph.ops) {
    if (o.ingest == ingest) ops.push_back(o.op);
  }
  return ops;
}

/// Per-layer serve, snapshot and load-generator metrics of the probe.
void AddServeLayers(const ServeOutcome& so, RunReport* rep) {
  rep->Add("snapshot.build_s", so.snapshot_build_s, "s");
  rep->Add("snapshot.bytes", static_cast<double>(so.snapshot_bytes), "bytes");
  rep->Add("snapshot.load_s", so.snapshot_load_s, "s");
  // The first and the last ingests of the replay, each as the median of
  // kIngestEnds ingests, so that one descheduled ingest does not stand for
  // its delta size.
  const std::vector<double>& ing = so.ingest_replay_ms;
  const size_t ends = std::min(kIngestEnds, ing.size());
  rep->Add("snapshot.ingest_ms.first",
           Median(std::vector<double>(ing.begin(), ing.begin() + ends)), "ms");
  rep->Add("snapshot.ingest_ms.last",
           Median(std::vector<double>(ing.end() - ends, ing.end())), "ms");

  std::vector<double> enc, dec;
  std::vector<OpenLoopOp> all;
  for (const OpOutcome& o : so.phase.ops) {
    enc.push_back(o.encode_us);
    if (o.op.answered) dec.push_back(o.decode_us);
    all.push_back(o.op);
  }
  const double limit_ms = kProbeDeadlineS * 1e3;
  const OpenLoopSummary frames = SummarizeOpenLoop(all, limit_ms, 1.0);
  const OpenLoopSummary queries =
      SummarizeOpenLoop(PhaseOps(so.phase, false), limit_ms, 1.0);
  const OpenLoopSummary ingests =
      SummarizeOpenLoop(PhaseOps(so.phase, true), limit_ms, 1.0);
  rep->Add("serve.encode_us", Median(enc), "us");
  rep->Add("serve.decode_us", Median(dec), "us");
  const double direct = Median(so.direct_ms);
  rep->Add("serve.direct_ms", direct, "ms");
  rep->Add("serve.overhead_ms", Median(queries.latency) - direct, "ms");
  rep->Add("serve.queue_depth_max",
           static_cast<double>(so.phase.queue_depth_max), "count");
  for (const char* k :
       {"requests_shed", "deadline_exceeded", "malformed_frames", "write_errors"}) {
    const long long v = JsonInt(so.final_pong, k);
    const std::string name = std::strcmp(k, "requests_shed") == 0
                                 ? "serve.shed"
                                 : std::string("serve.") + k;
    rep->Add(name, static_cast<double>(std::max(0ll, v)), "count");
  }
  AddLatency(rep, "serve.lo_", queries.latency);
  AddLatency(rep, "serve.ingest_", ingests.latency);
  rep->Add("loadgen.late_ms_max", frames.late_ms_max, "ms");
  rep->Add("loadgen.late_share", frames.late_share, "share");
}

/// The serve probe on its own seeded schema corpus. Its request ids start
/// at `first_request_id`, past those of the workload's engine replay.
bool ServeProbe(const RunConfig& cfg, uint64_t first_request_id,
                RunReport* rep, SpanBuffer* spans, std::string* err) {
  constexpr size_t kIngests = kProbeFrames / kIngestEvery;
  RawSets base = GenerateSchemaSets(
      SchemaMatchingDefaults(kSchemas + kIngests * kIngestSets, cfg.seed));
  const RawSets pool(base.begin() + kSchemas, base.end());
  base.resize(kSchemas);
  ServeOutcome so;
  if (!RunServe(cfg, base, pool, first_request_id, rep, &so, spans, err)) {
    return false;
  }
  AddServeLayers(so, rep);
  return true;
}

// --- Traced engine replay, shared by every workload -----------------------

struct EngineSweep {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

void AddEngineLayers(const ReplayResult& rr, const TraceLog& log,
                     const EngineSweep& sweep, double tokenize_s,
                     double index_s, size_t postings, RunReport* rep) {
  const std::vector<double> self = log.SelfSecondsByName();
  const SearchStats& st = rr.stats;
  const ReplayExtras& ex = rr.extras;
  auto share = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  rep->Add("text.tokenize_s", tokenize_s, "s");
  const char* stages[kPhiStages] = {"check", "nn", "verify"};
  for (int s = 0; s < kPhiStages; ++s) {
    rep->Add(std::string("text.phi_calls.") + stages[s],
             static_cast<double>(rr.phi.calls[s]), "count");
  }
  for (int s = 0; s < kPhiStages; ++s) {
    rep->Add(std::string("text.phi_ns.") + stages[s], rr.phi_ns[s], "ns");
  }
  rep->Add("text.phi_nonzero_share.verify",
           share(static_cast<double>(rr.phi.nonzero[kPhiVerify]),
                 static_cast<double>(rr.phi.calls[kPhiVerify])),
           "share");
  rep->Add("index.build_s", index_s, "s");
  rep->Add("index.postings", static_cast<double>(postings), "count");
  rep->Add("sig.s", self[kSpanSignature], "s");
  rep->Add("sig.probe_tokens", static_cast<double>(st.signature_tokens), "count");
  rep->Add("sig.fallback_scans", static_cast<double>(st.fallback_scans), "count");
  rep->Add("filter.check.s", self[kSpanCheck], "s");
  rep->Add("filter.check.postings_scanned",
           static_cast<double>(ex.postings_scanned), "count");
  rep->Add("filter.check.candidates",
           static_cast<double>(st.initial_candidates), "count");
  rep->Add("filter.check.after_size", static_cast<double>(st.after_size), "count");
  rep->Add("filter.check.after_check", static_cast<double>(st.after_check),
           "count");
  rep->Add("filter.check.pass_share",
           share(static_cast<double>(st.after_check),
                 static_cast<double>(st.initial_candidates)),
           "share");
  rep->Add("filter.nn.s", self[kSpanNn], "s");
  rep->Add("filter.nn.searches", static_cast<double>(ex.nn_searches), "count");
  rep->Add("filter.nn.early_terminations",
           static_cast<double>(ex.early_terminations), "count");
  rep->Add("filter.nn.after_nn", static_cast<double>(st.after_nn), "count");
  rep->Add("filter.nn.pass_share",
           share(static_cast<double>(st.after_nn),
                 static_cast<double>(st.after_check)),
           "share");
  rep->Add("matching.s", self[kSpanVerify], "s");
  rep->Add("matching.verifications", static_cast<double>(st.verifications),
           "count");
  rep->Add("matching.matrix_cells", static_cast<double>(ex.matrix_cells), "count");
  rep->Add("matching.bound_accepts", static_cast<double>(st.bound_accepts), "count");
  rep->Add("matching.bound_rejects", static_cast<double>(st.bound_rejects), "count");
  rep->Add("matching.tier2_accepts", static_cast<double>(st.tier2_accepts), "count");
  rep->Add("matching.floor_rejects", static_cast<double>(st.heap_floor_rejects),
           "count");
  rep->Add("matching.exact_solves", static_cast<double>(st.exact_solves), "count");
  rep->Add("matching.reporting_solves", static_cast<double>(st.reporting_solves),
           "count");
  rep->Add("matching.yield",
           share(static_cast<double>(st.results),
                 static_cast<double>(st.verifications)),
           "share");
  rep->Add("core.pass_s", self[kSpanPass], "s");
  rep->Add("core.trace_overhead_share",
           share(rr.replay_seconds, rr.engine_seconds) - 1.0, "share");
  rep->Add("core.cpu_s", sweep.cpu_s, "s");
  rep->Add("core.parallel_eff", share(sweep.cpu_s, sweep.wall_s * kThreads),
           "share");
  // Per-reference engine costs under the engine's contiguous chunking.
  const std::vector<double>& cost = rr.engine_ref_seconds;
  const size_t chunk = (cost.size() + kThreads - 1) / kThreads;
  double max_chunk = 0.0, sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    double c = 0.0;
    for (size_t i = t * chunk; i < std::min(cost.size(), (t + 1) * chunk); ++i) {
      c += cost[i];
    }
    max_chunk = std::max(max_chunk, c);
    sum += c;
  }
  rep->Add("core.chunk_max_over_mean", share(max_chunk, sum / kThreads), "ratio");
  std::vector<double> sorted = cost;
  std::sort(sorted.begin(), sorted.end());
  rep->Add("core.ref_cost_p99_over_p50",
           share(PercentileSorted(sorted, 99), PercentileSorted(sorted, 50)),
           "ratio");
}

/// Traced engine replay over `refs`, plus one untraced 4-thread sweep
/// (`sweep_fn`) for the CPU and parallel-efficiency figures.
template <typename SweepFn>
bool ReplayEngine(const Corpus& corpus, const Options& opt,
                  std::vector<const SetRecord*> refs, bool self_join,
                  size_t top_k, SweepFn sweep_fn, TraceLog* log,
                  double tokenize_s, double index_s, size_t postings,
                  RunReport* rep, std::string* err) {
  EngineSweep sweep;
  const double c0 = ProcessCpuSeconds();
  const double w0 = Now();
  sweep_fn();
  sweep.wall_s = Now() - w0;
  sweep.cpu_s = ProcessCpuSeconds() - c0;

  ReplayPlan plan;
  plan.data = corpus.data.get();
  plan.index = &corpus.engine->index();
  plan.options = opt;
  plan.refs = std::move(refs);
  plan.self_join = self_join;
  plan.top_k = top_k;
  plan.threads = kThreads;
  const ReplayResult rr = ReplaySweep(plan, log);
  if (!rr.equal) {
    *err = "traced replay disagrees with the engine: " + rr.mismatch;
    return false;
  }
  AddEngineLayers(rr, *log, sweep, tokenize_s, index_s, postings, rep);
  return true;
}

void WriteTrace(const RunConfig& cfg, const TraceLog& log) {
  const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".csv";
  log.WriteCsv(path, 200000);
}

// --- titles-eds-join -------------------------------------------------------

RawSets JoinRaw(uint64_t seed) {
  DblpParams p;
  p.num_titles = kTitles;
  p.seed = seed;
  return GenerateDblpSets(p);
}

bool RunJoin(const RunConfig& cfg, RunReport* rep, std::string* err) {
  const Options opt = JoinOptions();
  const RawSets raw = JoinRaw(cfg.seed);
  Corpus corpus;
  SpanBuffer setup_spans;
  double tokenize_s = 0, index_s = 0;
  size_t postings = 0;
  const std::vector<double> setup_reps =
      SetUp(raw, opt, &corpus, cfg.trace ? &setup_spans : nullptr, &tokenize_s,
            &index_s, &postings);
  const std::string expect = cfg.ParamString("digest");

  if (cfg.trace) {
    TraceLog log;
    log.Merge(setup_spans);
    std::vector<const SetRecord*> refs;
    for (const SetRecord& s : corpus.data->sets) refs.push_back(&s);
    std::vector<PairMatch> pairs;
    if (!ReplayEngine(corpus, opt, refs, true, 0,
                      [&] { pairs = corpus.engine->DiscoverSelf(); }, &log,
                      tokenize_s, index_s, postings, rep, err)) {
      return false;
    }
    rep->Check(expect.empty() || PairDigest(pairs) == expect,
               "join pair stream digest " + PairDigest(pairs) + " != " + expect);
    rep->notes.push_back("pair stream digest " + PairDigest(pairs));
    SpanBuffer serve_spans;
    if (!ServeProbe(cfg, refs.size() + 1, rep, &serve_spans, err)) return false;
    log.Merge(serve_spans);
    WriteTrace(cfg, log);
    return true;
  }

  // Timed: whole self-joins until the run time is used (at least two).
  std::vector<double> join_ms;
  std::vector<std::string> digests;
  std::vector<PairMatch> pairs;
  const double t_end = Now() + cfg.seconds;
  while (join_ms.size() < 2 || Now() < t_end) {
    const double t0 = Now();
    pairs = corpus.engine->DiscoverSelf();
    join_ms.push_back((Now() - t0) * 1e3);
    digests.push_back(PairDigest(pairs));
  }
  const double rss = SelfPeakRssMb();
  const double setup_s = SetupSeconds(setup_reps, raw, opt);

  // Answer checks, outside the timed window.
  for (const std::string& d : digests) {
    rep->Check(d == digests.front() && (expect.empty() || d == expect),
               "join pair stream digest " + d + " != " +
                   (expect.empty() ? digests.front() : expect));
  }
  rep->notes.push_back("pair stream digest " + digests.front());
  std::string walls = "join walls ms:";
  for (double ms : join_ms) walls += " " + std::to_string(static_cast<int>(ms));
  rep->notes.push_back(walls);
  const BruteForce oracle(corpus.data.get(), opt);
  const size_t samples = 16;
  std::vector<int> ok(samples, 0);
  ParallelFor(samples, kThreads, [&](size_t k) {
    const uint32_t r = static_cast<uint32_t>(k * (kTitles / samples) + 7);
    std::vector<SearchMatch> want;
    for (const SearchMatch& m : oracle.Search(corpus.data->sets[r])) {
      if (m.set_id > r) want.push_back(m);
    }
    std::vector<PairMatch> got;
    for (const PairMatch& p : pairs) {
      if (p.ref_id == r) got.push_back(p);
    }
    bool same = want.size() == got.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].set_id == got[i].set_id &&
             SameScore(want[i].relatedness, got[i].relatedness) &&
             SameScore(want[i].matching_score, got[i].matching_score);
    }
    ok[k] = same;
  });
  for (size_t k = 0; k < samples; ++k) {
    rep->Check(ok[k], "join reference sample " + std::to_string(k) +
                          " disagrees with BruteForce::Search");
  }

  const double limit = cfg.Param("limit_ms");
  size_t within = 0;
  for (double ms : join_ms) within += ms <= limit;
  rep->Add("setup_s", setup_s, "s");
  rep->Add("peak_rss_mb", rss, "MB");
  rep->Add("ok_share", 1.0 - static_cast<double>(rep->failed) / rep->attempted,
           "share");
  AddLatency(rep, "", join_ms);
  rep->Add("ops_per_s", kTitles / (Median(join_ms) / 1e3), "1/s");
  rep->Add("slo_share", static_cast<double>(within) / join_ms.size(), "share");
  return true;
}

// --- columns-topk-search ---------------------------------------------------

RawSets ColumnsRaw(uint64_t seed) {
  // The inclusion-dependency shape: 14-30 short elements per column.
  WebTableParams p = InclusionDependencyDefaults(kColumns, seed);
  p.min_elements = 14;
  p.max_elements = 30;
  return GenerateColumnSets(p);
}

bool RunSearch(const RunConfig& cfg, RunReport* rep, std::string* err) {
  const Options opt = SearchOptions();
  const RawSets raw = ColumnsRaw(cfg.seed);
  Corpus corpus;
  SpanBuffer setup_spans;
  double tokenize_s = 0, index_s = 0;
  size_t postings = 0;
  const std::vector<double> setup_reps =
      SetUp(raw, opt, &corpus, cfg.trace ? &setup_spans : nullptr, &tokenize_s,
            &index_s, &postings);
  // Uniform query mix over the corpus, drawn from the seed.
  Rng rng(cfg.seed * 0x2545F4914F6CDD1Dull + 3);
  std::vector<uint32_t> stream(1 << 16);
  for (uint32_t& q : stream) q = static_cast<uint32_t>(rng.NextBounded(kColumns));
  const SilkMoth& engine = *corpus.engine;

  if (cfg.trace) {
    TraceLog log;
    log.Merge(setup_spans);
    std::vector<const SetRecord*> refs;
    for (size_t i = 0; i < kTraceQueries; ++i) {
      refs.push_back(&corpus.data->sets[stream[i]]);
    }
    if (!ReplayEngine(corpus, opt, refs, false, kTopK,
                      [&] {
                        ParallelFor(kTraceQueries, kThreads, [&](size_t i) {
                          engine.SearchTopK(*refs[i], kTopK);
                        });
                      },
                      &log, tokenize_s, index_s, postings, rep, err)) {
      return false;
    }
    SpanBuffer serve_spans;
    if (!ServeProbe(cfg, refs.size() + 1, rep, &serve_spans, err)) return false;
    log.Merge(serve_spans);
    WriteTrace(cfg, log);
    return true;
  }

  // Timed: kThreads closed-loop clients calling SearchTopK.
  std::atomic<size_t> next{0};
  std::atomic<size_t> bad{0};
  std::vector<std::vector<double>> lat(kThreads);
  const double t0 = Now();
  const double t_end = t0 + cfg.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      while (Now() < t_end) {
        const size_t i = next.fetch_add(1) % stream.size();
        const double q0 = Now();
        const std::vector<SearchMatch> top =
            engine.SearchTopK(corpus.data->sets[stream[i]], kTopK);
        lat[c].push_back((Now() - q0) * 1e3);
        // A corpus set contains itself: the best answer has relatedness 1.
        if (top.empty() || top.size() > kTopK || top[0].relatedness < 1.0 - 1e-9) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall = Now() - t0;
  const double rss = SelfPeakRssMb();
  const double setup_s = SetupSeconds(setup_reps, raw, opt);
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  rep->attempted += all.size() - bad.load();
  for (size_t i = 0; i < bad.load(); ++i) {
    rep->Check(false, "top-k answer without the query's own set at relatedness 1");
  }

  // Sampled queries against the k best of BruteForce::Search.
  const BruteForce oracle(corpus.data.get(), opt);
  const size_t samples = 8;
  std::vector<int> ok(samples, 0);
  ParallelFor(samples, kThreads, [&](size_t k) {
    const SetRecord& ref = corpus.data->sets[stream[k]];
    std::vector<SearchMatch> want = oracle.Search(ref);
    std::sort(want.begin(), want.end(), IsBetterMatch);
    if (want.size() > kTopK) want.resize(kTopK);
    const std::vector<SearchMatch> got = engine.SearchTopK(ref, kTopK);
    bool same = want.size() == got.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].set_id == got[i].set_id &&
             SameScore(want[i].relatedness, got[i].relatedness);
    }
    ok[k] = same;
  });
  for (size_t k = 0; k < samples; ++k) {
    rep->Check(ok[k], "top-k query sample " + std::to_string(k) +
                          " differs from the k best of BruteForce::Search");
  }

  const double limit = cfg.Param("limit_ms");
  size_t within = 0;
  for (double ms : all) within += ms <= limit;
  rep->Add("setup_s", setup_s, "s");
  rep->Add("peak_rss_mb", rss, "MB");
  rep->Add("ok_share", 1.0 - static_cast<double>(rep->failed) / rep->attempted,
           "share");
  AddLatency(rep, "", all);
  rep->Add("ops_per_s", all.size() / wall, "1/s");
  rep->Add("slo_share",
           static_cast<double>(within) / static_cast<double>(all.size()), "share");
  return true;
}

}  // namespace

double RunConfig::Param(const std::string& key) const {
  return std::atof(params.at(key).c_str());
}

std::string RunConfig::ParamString(const std::string& key) const {
  const auto it = params.find(key);
  return it == params.end() ? std::string() : it->second;
}

void RunReport::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (notes.size() < 50) notes.push_back("FAILED: " + what);
}

bool RunWorkload(const RunConfig& cfg, RunReport* report, std::string* err) {
  if (cfg.params.count("limit_ms") == 0) {
    *err = "missing --param limit_ms";
    return false;
  }
  if (cfg.workload == "titles-eds-join") return RunJoin(cfg, report, err);
  if (cfg.workload == "columns-topk-search") return RunSearch(cfg, report, err);
  *err = "unknown workload: " + cfg.workload;
  return false;
}

}  // namespace perfbench
