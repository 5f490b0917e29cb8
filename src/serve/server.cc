#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "datagen/builders.h"
#include "datagen/io.h"
#include "snapshot/shard_runner.h"
#include "util/exit_codes.h"
#include "util/fault_injection.h"

#if defined(__unix__) || defined(__APPLE__)
#define SILKMOTH_SERVE_HAVE_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define SILKMOTH_SERVE_HAVE_POSIX 0
#endif

namespace silkmoth {
namespace serve {

namespace {

Frame ErrorFrame(uint64_t request_id, const char* code,
                 const std::string& detail) {
  Frame f;
  f.type = FrameType::kError;
  f.request_id = request_id;
  f.body = std::string(code) + ": " + detail + "\n";
  return f;
}

}  // namespace

ServeEngine::ServeEngine(ServeOptions options) : options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  // A request is served single-threaded on its worker lane — the
  // share-nothing discipline; concurrency comes from the worker count.
  options_.query.num_threads = 1;
}

ServeEngine::~ServeEngine() { Stop(); }

std::shared_ptr<ServeEngine::Generation> ServeEngine::MakeGeneration(
    std::shared_ptr<const Snapshot> snap,
    std::shared_ptr<const DeltaShard> delta) {
  auto gen = std::make_shared<Generation>();
  gen->snap = std::move(snap);
  gen->delta = std::move(delta);
  gen->views.reserve(gen->snap->num_shards() + 1);
  for (size_t s = 0; s < gen->snap->num_shards(); ++s) {
    gen->views.push_back(
        ShardView{gen->snap->shards[s].range, &gen->snap->shards[s].index});
  }
  // The delta streams as one more shard; its view borrows the DeltaShard
  // the generation holds, so the epoch reference covers it too.
  if (gen->delta != nullptr && gen->delta->delta_sets() > 0) {
    gen->views.push_back(gen->delta->View());
  }
  return gen;
}

std::shared_ptr<const ServeEngine::Generation> ServeEngine::Publish(
    std::shared_ptr<Generation> gen) {
  std::lock_guard<std::mutex> lk(gen_mu_);
  gen->id = next_generation_id_++;
  current_ = gen;
  // In-flight requests keep their reference to the old generation; its
  // mapping (and delta, if any) goes away when the last of them finishes —
  // never under a live view.
  return current_;
}

std::shared_ptr<const ServeEngine::Generation> ServeEngine::Current() const {
  std::lock_guard<std::mutex> lk(gen_mu_);
  return current_;
}

std::string ServeEngine::Start() {
  Snapshot snap;
  const std::string err =
      LoadSnapshot(options_.snapshot_path, &snap, options_.load_mode);
  if (!err.empty()) return err;
  return StartWith(std::move(snap));
}

std::string ServeEngine::StartWith(Snapshot snap) {
  if (started_) return "serve engine already started";
  const std::string compat = CheckSnapshotCompatible(snap, options_.query);
  if (!compat.empty()) return compat;
  auto gen = Publish(
      MakeGeneration(std::make_shared<Snapshot>(std::move(snap)), nullptr));
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.Reset(gen->views.size());
  }
  queues_ = std::make_unique<AdmissionQueues>(
      static_cast<size_t>(options_.workers), options_.max_queue,
      options_.max_inflight_bytes);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(static_cast<size_t>(w)); });
  }
  started_ = true;
  return "";
}

void ServeEngine::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  queues_->Shutdown();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ServeEngine::Submit(Frame frame, RespondFn respond) {
  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      pong.body = StatusJson() + "\n";
      respond(std::move(pong));
      return;
    }
    case FrameType::kQuery: {
      ServeRequest req;
      req.charged_bytes = frame.body.size();
      if (options_.request_deadline_seconds > 0.0) {
        // The deadline starts at admission, so queue wait counts against it
        // — a request that waited out its budget in the queue is answered
        // DEADLINE_EXCEEDED, not served stale.
        req.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               options_.request_deadline_seconds));
      }
      const uint64_t id = frame.request_id;
      req.frame = std::move(frame);
      req.respond = std::move(respond);
      if (queues_->TryPush(req)) {
        counters_.requests_admitted.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Shed, explicitly — never a silent hang. TryPush left req intact.
      counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      Frame shed;
      shed.type = FrameType::kOverloaded;
      shed.request_id = id;
      shed.body = "overloaded: queue depth or in-flight byte limit reached\n";
      req.respond(std::move(shed));
      return;
    }
    case FrameType::kIngest:
      // Applied inline on the injector thread: ingest mutates the shared
      // dictionary, so it has to serialize under tokenize_mu_ anyway —
      // queueing it would only add reordering against the queries already
      // admitted.
      respond(HandleIngest(frame));
      return;
    default:
      // A response-typed (or shutdown) frame is not servable here; answer
      // with a typed error instead of dropping it on the floor.
      counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      respond(ErrorFrame(frame.request_id, "bad-type",
                         std::string("frame type '") +
                             FrameTypeName(frame.type) +
                             "' is not servable"));
      return;
  }
}

std::string ServeEngine::Swap() {
  const fault::Outcome outcome = fault::Hit("swap-open");
  if (outcome.kind == fault::Outcome::kFail) {
    return "injected swap-open failure";
  }
  if (options_.snapshot_path.empty()) {
    return "serve: no snapshot path to reload";
  }
  Snapshot snap;
  const std::string err =
      LoadSnapshot(options_.snapshot_path, &snap, options_.load_mode);
  if (!err.empty()) return err;
  const std::string compat = CheckSnapshotCompatible(snap, options_.query);
  if (!compat.empty()) return compat;
  {
    // tokenize_mu_ serializes the swap against a concurrent ingest, which
    // also reads-then-republishes the current generation — without it an
    // ingest racing this swap could resurrect the replaced base.
    std::lock_guard<std::mutex> tk(tokenize_mu_);
    const std::shared_ptr<const Generation> old = Current();
    // A higher generation counter means the incoming snapshot is a
    // compacted descendant — the ingested sets now live in the base, so
    // starting the new epoch with no delta *drains* rather than drops them.
    if (old != nullptr && old->snap != nullptr &&
        snap.generation > old->snap->generation) {
      counters_.compactions.fetch_add(1, std::memory_order_relaxed);
    }
    Publish(
        MakeGeneration(std::make_shared<Snapshot>(std::move(snap)), nullptr));
    counters_.delta_sets.store(0, std::memory_order_relaxed);
    counters_.delta_oov_tokens.store(0, std::memory_order_relaxed);
  }
  counters_.swap_generations.fetch_add(1, std::memory_order_relaxed);
  return "";
}

Frame ServeEngine::HandleIngest(const Frame& frame) {
  RawSets raw;
  {
    std::istringstream in(frame.body);
    ReadRawSets(in, &raw);
  }
  if (raw.empty()) {
    return ErrorFrame(frame.request_id, "bad-request",
                      "ingest body holds no sets");
  }
  std::shared_ptr<const Generation> published;
  std::shared_ptr<const DeltaShard> next_delta;
  std::string err;
  {
    // One critical section from read-current to publish: ingest interns
    // OOV tokens into the generation's shared dictionary (the
    // BuildQueryBlock single-writer rule), and concurrent ingests cloning
    // the same generation would silently lose each other's sets.
    std::lock_guard<std::mutex> lk(tokenize_mu_);
    const std::shared_ptr<const Generation> cur = Current();
    if (cur->delta != nullptr) {
      next_delta = cur->delta->WithIngested(raw, &err);
    } else {
      const Snapshot& snap = *cur->snap;
      const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
      auto fresh =
          std::make_shared<DeltaShard>(&snap.data, snap.tokenizer, q);
      err = fresh->Ingest(raw);
      if (err.empty()) next_delta = std::move(fresh);
    }
    if (next_delta == nullptr) {
      return ErrorFrame(frame.request_id, "ingest-failed",
                        err.empty() ? "unknown ingest failure" : err);
    }
    published = Publish(MakeGeneration(cur->snap, next_delta));
    counters_.delta_sets.store(next_delta->delta_sets(),
                               std::memory_order_relaxed);
    counters_.delta_oov_tokens.store(next_delta->oov_tokens(),
                                     std::memory_order_relaxed);
  }
  Frame resp;
  resp.type = FrameType::kIngested;
  resp.request_id = frame.request_id;
  resp.body =
      "{\"generation\":" + std::to_string(published->id) +
      ",\"delta_sets\":" + std::to_string(next_delta->delta_sets()) +
      ",\"delta_oov_tokens\":" + std::to_string(next_delta->oov_tokens()) +
      "}\n";
  return resp;
}

uint64_t ServeEngine::generation_id() const {
  std::lock_guard<std::mutex> lk(gen_mu_);
  return current_ ? current_->id : 0;
}

std::string ServeEngine::StatusJson() const {
  std::string j = "{\"generation\":" + std::to_string(generation_id());
  j += ",\"workers\":" + std::to_string(options_.workers);
  j += ",\"queue_depth\":" +
       std::to_string(queues_ ? queues_->Depth() : 0);
  j += ",\"counters\":" + counters_.ToJson();
  j += "}";
  return j;
}

ShardedSearchStats ServeEngine::StatsSnapshot() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void ServeEngine::WorkerLoop(size_t worker) {
  ServeRequest req;
  while (queues_->Pop(worker, &req)) {
    const fault::Outcome outcome = fault::Hit("worker-dequeue");
    Frame resp;
    if (outcome.kind == fault::Outcome::kFail) {
      // An injected worker fault answers this one request with an internal
      // error and the worker keeps draining — one poisoned request must
      // never take the lane down.
      counters_.worker_faults.fetch_add(1, std::memory_order_relaxed);
      resp = ErrorFrame(req.frame.request_id, "internal",
                        "injected worker fault");
    } else {
      resp = Execute(req);
    }
    counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
    if (req.respond) req.respond(std::move(resp));
    queues_->Release(req.charged_bytes);
    req = ServeRequest{};  // Drop the respond closure before blocking again.
  }
}

Frame ServeEngine::Execute(const ServeRequest& req) {
  // The epoch reference: this request serves against exactly one
  // generation, held alive for the whole execution even if a Swap() lands
  // mid-request.
  const std::shared_ptr<const Generation> gen = Current();
  const Snapshot& snap = *gen->snap;
  // With a delta, the corpus is the combined collection (base set views +
  // delta sets, one shared dictionary) — global set ids, so pair lines come
  // out exactly as a compacted snapshot of the same state would emit them.
  const Collection& corpus =
      gen->delta != nullptr ? gen->delta->combined() : snap.data;

  RawSets raw;
  {
    std::istringstream in(req.frame.body);
    ReadRawSets(in, &raw);
  }
  Collection query;
  ReferenceBlock block;
  {
    // Interning OOV tokens mutates the generation's shared dictionary —
    // the BuildQueryBlock single-writer rule — so tokenization serializes.
    // Discovery below never reads the dictionary and runs fully parallel.
    std::lock_guard<std::mutex> lk(tokenize_mu_);
    const int q = snap.tokenizer == TokenizerKind::kQGram ? snap.q : 0;
    block = BuildQueryBlock(raw, snap.tokenizer, q, corpus, &query);
  }

  // Shard-at-a-time execution with deadline checks between shards: each
  // shard runs through the same DiscoverAcrossShards driver as a one-shard
  // span, which is exactly how out-of-process shard-run slices the work —
  // the concatenation, re-sorted to the canonical (ref_id, set_id) order,
  // is byte-identical to the whole-span run (the merge parity contract).
  const size_t num_shards = gen->views.size();
  ShardedSearchStats request_stats;
  request_stats.Reset(num_shards);
  std::vector<PairMatch> pairs;
  MergeCoverage cov;
  cov.num_shards = static_cast<uint32_t>(num_shards);
  bool expired = false;
  for (size_t s = 0; s < num_shards; ++s) {
    if (req.deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= req.deadline) {
      expired = true;
      for (size_t m = s; m < num_shards; ++m) {
        cov.missing.push_back(static_cast<uint32_t>(m));
      }
      break;
    }
    ShardedSearchStats one;
    one.Reset(1);
    std::vector<PairMatch> shard_pairs = DiscoverAcrossShards(
        block, corpus, std::span<const ShardView>(&gen->views[s], 1),
        options_.query, &one);
    request_stats.per_shard[s].Merge(one.per_shard[0]);
    pairs.insert(pairs.end(), shard_pairs.begin(), shard_pairs.end());
    cov.covered.push_back(static_cast<uint32_t>(s));
    cov.covered_ranges.push_back(gen->views[s].range);
    // Per-shard fault site: `serve-shard:sleep:MS` makes every shard slow —
    // how the deadline tests force a mid-request expiry deterministically.
    fault::Hit("serve-shard");
  }
  cov.complete = !expired;
  std::sort(pairs.begin(), pairs.end(), [](const PairMatch& a,
                                           const PairMatch& b) {
    return a.ref_id != b.ref_id ? a.ref_id < b.ref_id : a.set_id < b.set_id;
  });

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.Merge(request_stats);
  }

  Frame resp;
  resp.request_id = req.frame.request_id;
  if (expired) {
    counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    resp.type = FrameType::kDeadlineExceeded;
    // The shard-result v5 coverage stamp, verbatim — partial output is
    // explicitly stamped, never passed off as complete.
    resp.body = FormatCoverage(cov);
  } else {
    resp.type = FrameType::kResult;
  }
  for (const PairMatch& p : pairs) AppendPairLine(&resp.body, p);
  return resp;
}

// ---------------------------------------------------------------------------
// Signal flags + transports.

namespace {

std::atomic<bool> g_serve_term{false};
std::atomic<bool> g_serve_hup{false};

#if SILKMOTH_SERVE_HAVE_POSIX
void ServeTermHandler(int) { g_serve_term.store(true); }
void ServeHupHandler(int) { g_serve_hup.store(true); }
#endif

}  // namespace

bool ServeTermRequested() { return g_serve_term.load(); }

bool ConsumeServeHup() { return g_serve_hup.exchange(false); }

void InstallServeSignalHandlers() {
#if SILKMOTH_SERVE_HAVE_POSIX
  // No SA_RESTART: a signal must interrupt the blocking read/poll with
  // EINTR so the transport loop notices the flag promptly.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = ServeHupHandler;
  sigaction(SIGHUP, &sa, nullptr);
  sa.sa_handler = ServeTermHandler;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
#endif
}

#if SILKMOTH_SERVE_HAVE_POSIX

namespace {

/// Full-write of one encoded frame to `fd` under `mu` (responses from
/// concurrent workers must never interleave mid-frame). False on failure,
/// counted in write_errors; the `frame-write` fault site injects one.
bool WriteFrameToFd(int fd, const Frame& frame, std::mutex& mu,
                    ServeCounters& counters) {
  const fault::Outcome outcome = fault::Hit("frame-write");
  if (outcome.kind == fault::Outcome::kFail) {
    counters.write_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::string bytes = EncodeFrame(frame);
  std::lock_guard<std::mutex> lk(mu);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      counters.write_errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Counts submitted-but-unanswered frames so a transport can drain before
/// closing its fd — a response must never race the close.
struct PendingGate {
  std::mutex mu;
  std::condition_variable cv;
  size_t n = 0;

  void Add() {
    std::lock_guard<std::mutex> lk(mu);
    ++n;
  }
  void Done() {
    std::lock_guard<std::mutex> lk(mu);
    if (--n == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return n == 0; });
  }
};

void SwapOnHup(ServeEngine& engine) {
  if (!ConsumeServeHup()) return;
  const std::string err = engine.Swap();
  if (err.empty()) {
    std::fprintf(stderr, "# hot-swap: generation %llu now serving\n",
                 static_cast<unsigned long long>(engine.generation_id()));
  } else {
    // A failed swap keeps the old generation serving — degraded but alive.
    std::fprintf(stderr, "# hot-swap failed (still serving generation "
                         "%llu): %s\n",
                 static_cast<unsigned long long>(engine.generation_id()),
                 err.c_str());
  }
}

}  // namespace

int RunStdioServer(ServeEngine& engine) {
  FrameDecoder decoder(engine.options().max_frame_bytes);
  std::mutex write_mu;
  PendingGate pending;
  auto respond = [&](Frame f) {
    WriteFrameToFd(STDOUT_FILENO, f, write_mu, engine.counters());
    pending.Done();
  };

  int code = ExitCode(CliExit::kOk);
  bool stop = false;
  char buf[1 << 16];
  while (!stop && !ServeTermRequested()) {
    SwapOnHup(engine);
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;  // Signal; loop re-checks the flags.
      std::fprintf(stderr, "serve: stdin read failed: %s\n",
                   std::strerror(errno));
      code = ExitCode(CliExit::kIo);
      break;
    }
    if (n == 0) {
      if (decoder.MidFrame()) {
        // EOF inside a frame: the peer died mid-send. Count it and exit
        // with the corrupt-input code — the stream was torn.
        engine.counters().malformed_frames.fetch_add(
            1, std::memory_order_relaxed);
        std::fprintf(stderr, "serve: stdin closed mid-frame\n");
        code = ExitCode(CliExit::kCorruptInput);
      }
      break;
    }
    const fault::Outcome fo = fault::Hit("frame-read");
    if (fo.kind == fault::Outcome::kFail) {
      std::fprintf(stderr, "serve: injected frame-read failure\n");
      code = ExitCode(CliExit::kIo);
      break;
    }
    decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    FrameDecoder::Status st;
    while ((st = decoder.Next(&frame)) == FrameDecoder::Status::kFrame) {
      if (frame.type == FrameType::kShutdown) {
        Frame bye;
        bye.type = FrameType::kPong;
        bye.request_id = frame.request_id;
        bye.body = "goodbye\n";
        WriteFrameToFd(STDOUT_FILENO, bye, write_mu, engine.counters());
        stop = true;
        break;
      }
      pending.Add();
      engine.Submit(std::move(frame), respond);
    }
    if (stop) break;
    if (st != FrameDecoder::Status::kNeedMore) {
      // Framing violation: answer with one typed error frame and stop —
      // with a single peer on a byte pipe there is no safe way to find the
      // next frame boundary. The daemon exits cleanly, it never crashes.
      engine.counters().malformed_frames.fetch_add(1,
                                                   std::memory_order_relaxed);
      WriteFrameToFd(
          STDOUT_FILENO,
          ErrorFrame(0, FrameDecoder::StatusName(st),
                     "malformed frame; closing"),
          write_mu, engine.counters());
      std::fprintf(stderr, "serve: malformed frame (%s); exiting\n",
                   FrameDecoder::StatusName(st));
      code = ExitCode(CliExit::kCorruptInput);
      break;
    }
  }

  pending.Wait();  // Every submitted request answers before fd 1 is done.
  engine.Stop();
  return code;
}

namespace {

/// One socket connection: the fd (owned by the injector thread after
/// accept), a write lock so worker responses never interleave, and a
/// pending gate so the fd outlives every in-flight response.
struct Conn {
  int fd = -1;
  std::mutex fd_mu;     // Guards fd against shutdown-after-close.
  std::mutex write_mu;
  PendingGate pending;

  /// Wakes a blocked read (server exit path); never closes.
  void ShutdownBothEnds() {
    std::lock_guard<std::mutex> lk(fd_mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  void Close() {
    std::lock_guard<std::mutex> lk(fd_mu);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

/// Serves one accepted connection: decode, submit, respond; a framing
/// violation answers with a typed error frame and closes only this
/// connection — the daemon keeps serving everyone else.
void HandleConnection(ServeEngine& engine, std::shared_ptr<Conn> conn,
                      std::atomic<bool>* shutdown_requested) {
  FrameDecoder decoder(engine.options().max_frame_bytes);
  auto respond = [&engine, conn](Frame f) {
    WriteFrameToFd(conn->fd, f, conn->write_mu, engine.counters());
    conn->pending.Done();
  };
  const int fd = conn->fd;
  char buf[1 << 16];
  bool stop = false;
  while (!stop) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      if (decoder.MidFrame()) {
        // Mid-frame disconnect: counted, connection dropped, daemon fine.
        engine.counters().malformed_frames.fetch_add(
            1, std::memory_order_relaxed);
      }
      break;
    }
    const fault::Outcome fo = fault::Hit("frame-read");
    if (fo.kind == fault::Outcome::kFail) break;  // Treat as peer loss.
    decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    FrameDecoder::Status st;
    while ((st = decoder.Next(&frame)) == FrameDecoder::Status::kFrame) {
      if (frame.type == FrameType::kShutdown) {
        Frame bye;
        bye.type = FrameType::kPong;
        bye.request_id = frame.request_id;
        bye.body = "goodbye\n";
        WriteFrameToFd(fd, bye, conn->write_mu, engine.counters());
        if (shutdown_requested != nullptr) shutdown_requested->store(true);
        stop = true;
        break;
      }
      conn->pending.Add();
      engine.Submit(std::move(frame), respond);
    }
    if (stop) break;
    if (st != FrameDecoder::Status::kNeedMore) {
      engine.counters().malformed_frames.fetch_add(1,
                                                   std::memory_order_relaxed);
      WriteFrameToFd(fd,
                     ErrorFrame(0, FrameDecoder::StatusName(st),
                                "malformed frame; closing connection"),
                     conn->write_mu, engine.counters());
      break;
    }
  }
  conn->pending.Wait();  // Drain in-flight responses before the close.
  conn->Close();
}

}  // namespace

int RunSocketServer(ServeEngine& engine, const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "serve: socket path too long: %s\n",
                 socket_path.c_str());
    return ExitCode(CliExit::kUsage);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) {
    std::fprintf(stderr, "serve: socket(): %s\n", std::strerror(errno));
    return ExitCode(CliExit::kIo);
  }
  // Replace a stale socket file unconditionally: after a kill -9 the old
  // file survives, and restart must need no recovery step.
  ::unlink(socket_path.c_str());
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 64) != 0) {
    std::fprintf(stderr, "serve: cannot listen on %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(lfd);
    return ExitCode(CliExit::kIo);
  }
  std::fprintf(stderr, "# serving generation %llu on %s (%d workers)\n",
               static_cast<unsigned long long>(engine.generation_id()),
               socket_path.c_str(), engine.options().workers);

  std::atomic<bool> shutdown_requested{false};
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> threads;
  while (!ServeTermRequested() && !shutdown_requested.load()) {
    SwapOnHup(engine);
    pollfd pfd;
    pfd.fd = lfd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "serve: poll(): %s\n", std::strerror(errno));
      break;
    }
    if (pr == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    conns.push_back(conn);
    threads.emplace_back([&engine, conn, &shutdown_requested] {
      HandleConnection(engine, conn, &shutdown_requested);
    });
  }

  ::close(lfd);
  ::unlink(socket_path.c_str());
  // Wake every injector still blocked in read(); each drains its in-flight
  // responses and closes its own fd.
  for (const auto& conn : conns) conn->ShutdownBothEnds();
  for (std::thread& t : threads) t.join();
  engine.Stop();
  return ExitCode(CliExit::kOk);
}

#else  // !SILKMOTH_SERVE_HAVE_POSIX

int RunStdioServer(ServeEngine&) {
  std::fprintf(stderr, "serve: transports need POSIX I/O\n");
  return ExitCode(CliExit::kIo);
}

int RunSocketServer(ServeEngine&, const std::string&) {
  std::fprintf(stderr, "serve: transports need POSIX I/O\n");
  return ExitCode(CliExit::kIo);
}

#endif  // SILKMOTH_SERVE_HAVE_POSIX

}  // namespace serve
}  // namespace silkmoth
