// The serve side of the benchmark: a real `silkmoth_cli serve` daemon in a
// child process, a frame client over its unix socket, and the open-loop load
// generator that drives it.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "serve/protocol.h"

namespace perfbench {

/// One blocking client connection to the daemon's socket.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(const std::string& path);
  bool SendAll(const std::string& bytes);
  /// Reads until one whole frame is decoded; false on EOF, error, a
  /// malformed stream or when `timeout_s` passes.
  bool Recv(silkmoth::serve::Frame* out, double timeout_s);
  /// Send one frame, wait for its reply.
  bool Call(const silkmoth::serve::Frame& req, silkmoth::serve::Frame* resp,
            double timeout_s);
  void Close();

 private:
  int fd_ = -1;
  silkmoth::serve::FrameDecoder decoder_;
};

/// A `silkmoth_cli serve` child process. The destructor stops it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `argv` (argv[0] is the CLI path; its stdout and stderr go to
  /// `log_path`) and waits for the first pong on `socket_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& socket_path, const std::string& log_path,
             std::string* err);
  /// The daemon's pong body (its status JSON), or "" on failure.
  std::string Ping();
  /// Shutdown frame, then wait; SIGKILL if it does not exit in time.
  /// Returns true when the daemon exited cleanly with status 0.
  bool Stop();

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

/// One planned frame of the open-loop schedule.
struct PlannedOp {
  double offset_s = 0.0;  ///< Due time relative to the phase start.
  bool ingest = false;
  std::string body;       ///< Raw-set payload.
  /// Query: for each reference j of the payload, the corpus set it was
  /// drawn from; the reply must contain the pair line "j\t<id>\t".
  /// Ingest: expected delta_sets after this ingest (one element).
  std::vector<uint32_t> expect;
};

/// What happened to one planned frame.
struct OpOutcome {
  OpenLoopOp op;
  uint64_t request_id = 0;  ///< The id the frame was sent with.
  bool ingest = false;
  double encode_us = 0.0;
  double decode_us = 0.0;
  uint32_t response_type = 0;
};

/// Phase-wide observations besides the per-frame outcomes.
struct PhaseResult {
  std::vector<OpOutcome> ops;
  size_t queue_depth_max = 0;  ///< Over pongs sampled during the phase.
};

/// Runs one open-loop phase over `conn` (frames) and `ping_conn` (queue
/// depth sampling every `ping_interval_s`). Frames are sent at their due
/// times whatever the daemon does; replies are matched by request id.
/// Request ids start at `first_request_id`.
PhaseResult RunOpenLoopPhase(Conn* conn, Conn* ping_conn,
                             const std::vector<PlannedOp>& plan,
                             uint64_t first_request_id,
                             double ping_interval_s, double drain_timeout_s);

/// Checks a reply against its planned frame (see PlannedOp::expect).
bool ReplyOk(const PlannedOp& op, const silkmoth::serve::Frame& reply);

/// Reads an integer field `"key":N` from a JSON status line; -1 if absent.
long long JsonInt(const std::string& json, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
