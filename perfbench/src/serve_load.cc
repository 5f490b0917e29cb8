#include "serve_load.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "trace.h"

extern char** environ;

namespace perfbench {

using silkmoth::serve::EncodeFrame;
using silkmoth::serve::Frame;
using silkmoth::serve::FrameDecoder;
using silkmoth::serve::FrameType;

namespace {

double SecondsNow() { return NowNs() * 1e-9; }

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::Connect(const std::string& path) {
  Close();
  decoder_ = FrameDecoder();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool Conn::SendAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::Recv(Frame* out, double timeout_s) {
  const double deadline = SecondsNow() + timeout_s;
  char buf[1 << 16];
  while (true) {
    const FrameDecoder::Status st = decoder_.Next(out);
    if (st == FrameDecoder::Status::kFrame) return true;
    if (st != FrameDecoder::Status::kNeedMore) return false;
    const double left = deadline - SecondsNow();
    if (left <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left * 1e3) + 1);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) continue;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    decoder_.Feed(buf, static_cast<size_t>(n));
  }
}

bool Conn::Call(const Frame& req, Frame* resp, double timeout_s) {
  return SendAll(EncodeFrame(req)) && Recv(resp, timeout_s);
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::Start(const std::vector<std::string>& argv,
                   const std::string& socket_path, const std::string& log_path,
                   std::string* err) {
  socket_path_ = socket_path;
  ::unlink(socket_path.c_str());
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  const double t0 = SecondsNow();
  const int rc = posix_spawn(&pid_, cargv[0], &fa, nullptr, cargv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    *err = std::string("cannot spawn ") + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  Conn c;
  while (SecondsNow() - t0 < 60.0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *err = "serve daemon exited during start-up (see " + log_path + ")";
      return false;
    }
    if (c.Connect(socket_path)) {
      Frame ping;
      ping.type = FrameType::kPing;
      Frame pong;
      if (c.Call(ping, &pong, 10.0) && pong.type == FrameType::kPong) {
        return true;
      }
    }
    SleepSeconds(0.001);
  }
  *err = "serve daemon did not answer a ping within 60 s";
  return false;
}

std::string Daemon::Ping() {
  Conn c;
  if (!c.Connect(socket_path_)) return "";
  Frame ping;
  ping.type = FrameType::kPing;
  Frame pong;
  if (!c.Call(ping, &pong, 10.0) || pong.type != FrameType::kPong) return "";
  return pong.body;
}

bool Daemon::Stop() {
  if (pid_ <= 0) return false;
  Conn c;
  if (c.Connect(socket_path_)) {
    Frame bye;
    bye.type = FrameType::kShutdown;
    Frame resp;
    c.Call(bye, &resp, 10.0);
  }
  int status = 0;
  const double t0 = SecondsNow();
  while (SecondsNow() - t0 < 30.0) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    SleepSeconds(0.005);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return false;
}

long long JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + needle.size());
}

bool ReplyOk(const PlannedOp& op, const Frame& reply) {
  if (op.ingest) {
    return reply.type == FrameType::kIngested && !op.expect.empty() &&
           JsonInt(reply.body, "delta_sets") ==
               static_cast<long long>(op.expect[0]);
  }
  if (reply.type != FrameType::kResult) return false;
  for (size_t j = 0; j < op.expect.size(); ++j) {
    const std::string line =
        std::to_string(j) + "\t" + std::to_string(op.expect[j]) + "\t";
    if (reply.body.rfind(line, 0) != 0 &&
        reply.body.find("\n" + line) == std::string::npos) {
      return false;
    }
  }
  return true;
}

PhaseResult RunOpenLoopPhase(Conn* conn, Conn* ping_conn,
                             const std::vector<PlannedOp>& plan,
                             uint64_t first_request_id,
                             double ping_interval_s, double drain_timeout_s) {
  PhaseResult res;
  res.ops.resize(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    res.ops[i].ingest = plan[i].ingest;
    res.ops[i].request_id = first_request_id + i;
  }
  const double t0 = SecondsNow() + 0.05;
  const double last_due = plan.empty() ? t0 : t0 + plan.back().offset_s;
  std::atomic<bool> done{false};
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    for (size_t i = 0; i < plan.size(); ++i) {
      const double due = t0 + plan[i].offset_s;
      const double wait = due - SecondsNow();
      if (wait > 0) SleepSeconds(wait);
      OpOutcome& o = res.ops[i];
      o.op.due = due;
      o.op.sent = SecondsNow();
      Frame f;
      f.type = plan[i].ingest ? FrameType::kIngest : FrameType::kQuery;
      f.request_id = o.request_id;
      f.body = plan[i].body;
      const int64_t e0 = NowNs();
      const std::string bytes = EncodeFrame(f);
      o.encode_us = (NowNs() - e0) * 1e-3;
      if (!send_failed.load() && !conn->SendAll(bytes)) send_failed = true;
    }
  });

  std::thread pinger([&] {
    while (!done.load()) {
      Frame ping;
      ping.type = FrameType::kPing;
      Frame pong;
      if (ping_conn->Call(ping, &pong, 5.0)) {
        const long long d = JsonInt(pong.body, "queue_depth");
        if (d > 0) {
          res.queue_depth_max =
              std::max(res.queue_depth_max, static_cast<size_t>(d));
        }
      }
      SleepSeconds(ping_interval_s);
    }
  });

  std::vector<Frame> replies(plan.size());
  size_t answered = 0;
  while (answered < plan.size()) {
    const double left = last_due + drain_timeout_s - SecondsNow();
    if (left <= 0 || send_failed.load()) break;
    Frame reply;
    if (!conn->Recv(&reply, left)) break;
    const int64_t d1 = NowNs();
    const uint64_t idx = reply.request_id - first_request_id;
    if (reply.request_id < first_request_id || idx >= plan.size() ||
        res.ops[idx].op.answered) {
      continue;
    }
    OpOutcome& o = res.ops[idx];
    o.op.done = d1 * 1e-9;
    o.op.answered = true;
    o.response_type = static_cast<uint32_t>(reply.type);
    o.op.ok = ReplyOk(plan[idx], reply);
    replies[idx] = std::move(reply);
    ++answered;
  }
  sender.join();
  done = true;
  pinger.join();

  // Decoder cost on each actual reply, timed after the phase so that it
  // never delays the receive loop whose timestamps are the measurement.
  for (size_t i = 0; i < plan.size(); ++i) {
    if (!res.ops[i].op.answered) continue;
    const std::string bytes = EncodeFrame(replies[i]);
    FrameDecoder dec;
    Frame out;
    const int64_t d0 = NowNs();
    dec.Feed(bytes.data(), bytes.size());
    dec.Next(&out);
    res.ops[i].decode_us = (NowNs() - d0) * 1e-3;
  }
  return res;
}

}  // namespace perfbench
