#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fastqre {
namespace {

/// How long one WaitAnswers pull blocks while streaming a submit. Short
/// enough that Stop() is observed promptly, long enough to not busy-poll.
constexpr double kStreamPollSeconds = 0.2;

/// Poll slice for deadline-bounded socket I/O: every read or write wait is
/// chopped into slices this long so a connection observes Stop() and its
/// own deadlines within ~one slice, whatever the peer does.
constexpr int kPollSliceMs = 100;

/// Bytes injected by a `garbage` wire fault. As a length prefix they decode
/// to 0xDEADBEEF — far over kMaxFramePayload — so the framing layer turns
/// them into a typed error deterministically, never a stuck parse.
constexpr char kGarbageBytes[] = {'\xDE', '\xAD', '\xBE', '\xEF'};

}  // namespace

Server::Server(JobManager* manager, ServerConfig config)
    : manager_(manager), config_(std::move(config)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!config_.fault_spec.empty()) {
    Result<std::unique_ptr<FaultInjector>> parsed =
        FaultInjector::Parse(config_.fault_spec);
    if (!parsed.ok()) return parsed.status();
    faults_ = std::move(*parsed);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::IOError("bind: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, config_.backlog) < 0) {
    const Status s =
        Status::IOError("listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  uptime_.Reset();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

uint64_t Server::active_connections() const {
  MutexLock lock(&mu_);
  return conns_.size();
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocked accept(); close alone may not on Linux.
  // The acceptor reads listen_fd_, so the descriptor is closed and reset
  // only after the acceptor has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    // Every fd in the registry is live — a connection erases its entry
    // *before* closing its descriptor — so this shutdown() can never hit a
    // reused fd. It wakes each serving thread's poll; they self-reap while
    // we wait for the registry to drain.
    for (auto& [id, conn] : conns_) ::shutdown(conn.fd, SHUT_RDWR);
    while (!conns_.empty()) conns_cv_.Wait(mu_);
    to_join.swap(reaped_);
  }
  for (std::thread& t : to_join) t.join();
}

void Server::JoinReaped() {
  std::vector<std::thread> done;
  {
    MutexLock lock(&mu_);
    done.swap(reaped_);
  }
  for (std::thread& t : done) t.join();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    // Reap ended connections opportunistically so a long-lived server's
    // tombstone list stays bounded by the accept cadence.
    JoinReaped();
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop(), or unrecoverable
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (faults_ != nullptr) {
      // `stall` sleeps inside Hit(), holding up the accept pipeline the way
      // a SYN-flood-throttled listener would.
      const FaultActions actions = faults_->Hit("wire-accept");
      if (actions.reset) {
        ArmReset(fd);
        ::close(fd);
        continue;
      }
    }

    bool shed = false;
    {
      MutexLock lock(&mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      if (config_.max_connections > 0 &&
          conns_.size() >= static_cast<size_t>(config_.max_connections)) {
        shed = true;
      } else {
        const uint64_t conn_id = next_conn_id_++;
        Conn& conn = conns_[conn_id];
        conn.fd = fd;
        // The serving thread self-reaps under mu_, so it cannot race this
        // assignment: it blocks here until we release the lock.
        conn.thread =
            std::thread([this, conn_id, fd] { ServeConnection(conn_id, fd); });
      }
    }
    if (shed) {
      shed_connections_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort typed refusal: one non-blocking send (the frame is tens
      // of bytes, a fresh socket buffer always holds it) — the acceptor
      // must never block on a shed peer.
      const std::string frame = EncodeFrame(SerializeResponse(
          MakeErrorResponse(WireError::kOverloaded,
                            "connection limit reached (" +
                                std::to_string(config_.max_connections) +
                                "); retry with backoff")));
      ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
    }
  }
}

void Server::ServeConnection(uint64_t conn_id, int fd) {
  FrameReader reader;
  char buf[4096];
  bool open = true;
  Timer idle;  // reset on every inbound byte; measures pure silence
  while (open && !stopping_.load(std::memory_order_acquire)) {
    pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      if (config_.idle_timeout_ms > 0 &&
          idle.ElapsedMillis() >= config_.idle_timeout_ms) {
        // A half-open or forgotten client does not pin a thread forever:
        // typed timeout, then close. Any job it submitted keeps running.
        WriteResponse(
            fd, MakeErrorResponse(
                    WireError::kTimeout,
                    "read-idle deadline (" +
                        std::to_string(config_.idle_timeout_ms) +
                        " ms) expired"));
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // orderly client close
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    idle.Reset();
    if (faults_ != nullptr) {
      // `stall` sleeps inside Hit(), simulating a read-side network stall.
      const FaultActions actions = faults_->Hit("wire-read");
      if (actions.reset) {
        ArmReset(fd);
        break;
      }
      if (actions.garbage) {
        // Corrupt the inbound stream the way a broken proxy would; the
        // framing layer must answer with a typed error, not wedge.
        reader.Feed(kGarbageBytes, sizeof(kGarbageBytes));
      }
    }
    reader.Feed(buf, static_cast<size_t>(n));
    std::string payload;
    for (;;) {
      Result<bool> next = reader.Next(&payload);
      if (!next.ok()) {
        // Unrecoverable framing error: answer once, drop the connection.
        WriteResponse(fd, MakeErrorResponse(WireError::kInvalidArgument,
                                            next.status().message()));
        open = false;
        break;
      }
      if (!*next) break;
      Result<Request> req = ParseRequest(payload);
      if (!req.ok()) {
        const std::string& msg = req.status().message();
        const WireError code =
            msg.compare(0, 16, "version-mismatch") == 0
                ? WireError::kVersionMismatch
                : WireError::kInvalidArgument;
        if (!WriteResponse(fd, MakeErrorResponse(code, msg))) {
          open = false;
          break;
        }
        continue;
      }
      if (!Dispatch(fd, *req)) {
        open = false;
        break;
      }
    }
  }
  // Self-reap: erase our registry entry (parking the thread handle as a
  // tombstone for AcceptLoop / Stop() to join) *before* closing the fd, so
  // no other thread can ever shutdown() a closed-and-reused descriptor.
  {
    MutexLock lock(&mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) {
      reaped_.push_back(std::move(it->second.thread));
      conns_.erase(it);
    }
    conns_cv_.NotifyAll();
  }
  ::close(fd);
}

bool Server::Dispatch(int fd, const Request& req) {
  switch (req.verb) {
    case Verb::kListDbs: {
      Response resp;
      resp.kind = Response::Kind::kDbList;
      resp.dbs = manager_->ListDbs();
      return WriteResponse(fd, resp);
    }
    case Verb::kPing: {
      Response resp;
      resp.kind = Response::Kind::kPong;
      resp.pong.uptime_seconds = uptime_.ElapsedSeconds();
      resp.pong.active_connections = active_connections();
      resp.pong.shed_connections =
          shed_connections_.load(std::memory_order_relaxed);
      const JobManager::JobStateCounts counts = manager_->CountJobsByState();
      resp.pong.jobs_queued = counts.queued;
      resp.pong.jobs_running = counts.running;
      resp.pong.jobs_done = counts.done;
      resp.pong.jobs_cancelled = counts.cancelled;
      resp.pong.jobs_failed = counts.failed;
      return WriteResponse(fd, resp);
    }
    case Verb::kStatus:
    case Verb::kCancel: {
      Result<WireJobStatus> status = req.verb == Verb::kStatus
                                         ? manager_->GetStatus(req.job_id)
                                         : manager_->Cancel(req.job_id);
      if (!status.ok()) {
        return WriteResponse(
            fd, MakeErrorResponse(WireError::kNotFound,
                                  status.status().message()));
      }
      Response resp;
      resp.kind = Response::Kind::kStatus;
      resp.status = *status;
      return WriteResponse(fd, resp);
    }
    case Verb::kAttach: {
      // Existence check first, so attaching to an unknown id is one clean
      // typed NotFound rather than accepted-then-error.
      const Result<WireJobStatus> status = manager_->GetStatus(req.job_id);
      if (!status.ok()) {
        return WriteResponse(
            fd, MakeErrorResponse(WireError::kNotFound,
                                  status.status().message()));
      }
      if (!WriteResponse(fd, MakeAcceptedResponse(req.job_id))) return false;
      return StreamJob(fd, req.job_id, req.cursor);
    }
    case Verb::kSubmit: {
      const JobManager::SubmitOutcome outcome = manager_->Submit(req);
      if (outcome.error != WireError::kNone) {
        return WriteResponse(fd,
                             MakeErrorResponse(outcome.error, outcome.message));
      }
      if (!WriteResponse(fd, MakeAcceptedResponse(outcome.job_id))) {
        return false;
      }
      // An idempotent retry (outcome.existing) replays the stream from 0;
      // the client dedupes by sequence number and byte-compares overlaps.
      return StreamJob(fd, outcome.job_id, 0);
    }
  }
  return false;
}

bool Server::StreamJob(int fd, uint64_t job_id, uint64_t cursor) {
  // Stream the job's answers on this connection until the stream completes
  // or the connection dies (the job itself survives either way; the client
  // resumes with attach from its last acknowledged sequence + 1).
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    // A peer that vanished mid-stream must not pin this thread for the
    // job's whole runtime: detect the EOF/reset and reclaim the thread.
    if (PeerClosed(fd)) return false;
    Result<JobManager::StreamProgress> pull = manager_->WaitAnswers(
        job_id, static_cast<size_t>(cursor), kStreamPollSeconds);
    if (!pull.ok()) {
      return WriteResponse(fd,
                           MakeErrorResponse(WireError::kInternal,
                                             pull.status().message()));
    }
    for (const WireAnswer& answer : pull->answers) {
      Response resp;
      resp.kind = Response::Kind::kAnswer;
      resp.job_id = job_id;
      resp.answer = answer;
      // seq IS the stream position: a resume cursor names the first seq
      // the client has not yet acknowledged.
      resp.seq = cursor;
      if (!WriteResponse(fd, resp)) return false;
      ++cursor;
    }
    if (pull->complete) {
      Response done;
      done.kind = Response::Kind::kDone;
      done.job_id = job_id;
      done.state = pull->state;
      done.failure_reason = pull->failure_reason;
      done.answers = cursor;  // total stream length, cursor-independent
      return WriteResponse(fd, done);
    }
  }
}

bool Server::WriteResponse(int fd, const Response& resp) {
  bool short_write = false;
  if (faults_ != nullptr) {
    // `stall` sleeps inside Hit(), simulating a write-side network stall.
    const FaultActions actions = faults_->Hit("wire-write");
    if (actions.reset) {
      ArmReset(fd);
      return false;
    }
    short_write = actions.short_write;
    if (actions.garbage) {
      // Corrupt the outbound stream: the client must treat the framing
      // error as a transport failure and recover via reconnect + attach.
      if (!SendWithDeadline(fd, kGarbageBytes, sizeof(kGarbageBytes),
                            /*short_write=*/false)) {
        return false;
      }
    }
  }
  const std::string frame = EncodeFrame(SerializeResponse(resp));
  return SendWithDeadline(fd, frame.data(), frame.size(), short_write);
}

bool Server::SendWithDeadline(int fd, const char* data, size_t n,
                              bool short_write) {
  Timer stall;  // reset on every byte of progress: measures pure stall time
  size_t sent = 0;
  while (sent < n) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    const size_t chunk = short_write ? 1 : n - sent;
    // MSG_NOSIGNAL: a client that disconnected mid-stream must surface as
    // an error return, not a process-killing SIGPIPE. MSG_DONTWAIT keeps
    // the stall deadline honest on a blocking fd.
    const ssize_t rc =
        ::send(fd, data + sent, chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      stall.Reset();
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (config_.io_deadline_ms > 0 &&
          stall.ElapsedMillis() >= config_.io_deadline_ms) {
        // The peer stopped draining its window. Abort this connection —
        // the job survives, the client re-attaches when it recovers.
        return false;
      }
      pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      p.revents = 0;
      ::poll(&p, 1, kPollSliceMs);
      continue;
    }
    return false;
  }
  return true;
}

bool Server::PeerClosed(int fd) {
  pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  if (::poll(&p, 1, 0) <= 0) return false;
  if ((p.revents & (POLLERR | POLLNVAL)) != 0) return true;
  char byte;
  const ssize_t rc = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (rc > 0) return false;  // pipelined request bytes: the peer is alive
  if (rc == 0) return true;  // orderly EOF
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

void Server::ArmReset(int fd) {
  linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace fastqre
