// QRE-as-a-service wire protocol, version 1 (DESIGN.md §15).
//
// Transport: length-prefixed JSON frames over a byte stream. Each frame is
//
//     [4-byte big-endian payload length][payload bytes]
//
// where the payload is one compact JSON document. The length prefix makes
// framing independent of JSON content (no sentinel scanning), and the
// kMaxFramePayload cap rejects hostile lengths before any allocation.
//
// Schema: every request carries {"v": 1, "verb": ...}; a server that does
// not speak the requested version answers a typed "version-mismatch" error
// instead of guessing. Verbs:
//
//   submit    {"v","verb","tenant","db","rout_csv","options":{...},
//              "idempotency_key"?}
//             -> accepted, then a stream of answer events (rank order, as
//                proved, each carrying a monotonic per-job "seq"), then
//                done. A repeated submit with the same idempotency key
//                returns the existing job instead of admitting a second.
//   attach    {"v","verb","job","cursor"?} -> accepted, then the job's
//             answer stream re-played from `cursor` (live or finished) —
//             the resume path after a dropped connection.
//   status    {"v","verb","job"}       -> one status event.
//   cancel    {"v","verb","job"}       -> one status event (post-cancel).
//   list-dbs  {"v","verb"}             -> one db-list event.
//   ping      {"v","verb"}             -> one pong event (uptime, active
//             connections, jobs by state) for health checks.
//
// This header is the *pure* serialization layer: structs in, JSON frames
// out, and back — no sockets, no threads — so protocol_test exercises every
// schema path hermetically. The TCP plumbing lives in server.{h,cc}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "qre/fastqre.h"

namespace fastqre {

inline constexpr int kProtocolVersion = 1;

/// Frames larger than this are a protocol error (defensive cap, not a
/// tuning knob: a CSV R_out or an answer batch is megabytes at most).
inline constexpr uint32_t kMaxFramePayload = 32u << 20;

// ---- Framing ---------------------------------------------------------------

/// \brief Wraps `payload` in a length-prefixed frame.
std::string EncodeFrame(const std::string& payload);

/// \brief Incremental frame decoder: feed raw bytes from the stream, pull
/// complete payloads. Tolerates arbitrary fragmentation (a frame split
/// across reads) and coalescing (many frames in one read).
class FrameReader {
 public:
  /// Appends raw stream bytes to the internal buffer.
  void Feed(const char* data, size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete payload into `out`. Returns OK(true) on a
  /// frame, OK(false) when more bytes are needed, InvalidArgument when the
  /// stream is unrecoverably malformed (length over kMaxFramePayload).
  Result<bool> Next(std::string* out);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

// ---- Requests --------------------------------------------------------------

enum class Verb { kSubmit, kStatus, kCancel, kListDbs, kAttach, kPing };

const char* VerbToString(Verb verb);

/// \brief The QreOptions subset a client may set per job. Everything else
/// (cache budgets, kernel toggles) is server policy, not client input.
struct WireOptions {
  bool superset = false;
  int limit = 1;                    // ReverseAll answer limit
  double time_budget_seconds = 0;   // 0 = server default
  int validation_threads = 1;       // clamped by the server
  double alpha = 0.5;
  /// Requested governor slice; 0 = the server's default slice. The
  /// admission controller clamps and reserves it from the global pool.
  uint64_t memory_budget_bytes = 0;
};

struct Request {
  int version = kProtocolVersion;
  Verb verb = Verb::kListDbs;
  std::string tenant;   // submit (admission identity); empty = "default"
  std::string db;       // submit: named pre-attached database
  std::string rout_csv; // submit: the R_out table, CSV with header
  WireOptions options;  // submit
  /// Client-chosen idempotency key (submit, optional). A retry after an
  /// ambiguous failure that carries the same (tenant, key) returns the
  /// already-admitted job instead of creating a second one.
  std::string idempotency_key;
  uint64_t job_id = 0;  // status / cancel / attach
  uint64_t cursor = 0;  // attach: first sequence number to (re-)stream
};

std::string SerializeRequest(const Request& req);

/// Parses and validates one request payload. Typed failures: a bad version
/// yields InvalidArgument whose message begins with "version-mismatch".
Result<Request> ParseRequest(const std::string& payload);

// ---- Responses -------------------------------------------------------------

/// \brief Typed error taxonomy of the service. Stable wire strings — the
/// client and the admission tests match on them.
enum class WireError {
  kNone,
  kInvalidArgument,   // malformed request / CSV / options
  kVersionMismatch,   // client speaks a different protocol version
  kNotFound,          // unknown db name or job id
  kRateLimited,       // tenant token bucket empty
  kSaturated,         // job table / queue full (or injected admission fault)
  kBudgetExhausted,   // global memory pool cannot fund the slice
  kOverloaded,        // connection cap reached (wire-layer load shedding)
  kTimeout,           // read-idle deadline expired on this connection
  kShuttingDown,      // server is draining
  kInternal,
};

/// True for errors a client may retry (with backoff) without changing the
/// request: transient load / pacing conditions. The retry matrix lives in
/// DESIGN.md §15.5.
bool IsRetryableWireError(WireError code);

const char* WireErrorToString(WireError code);
WireError WireErrorFromString(const std::string& s);

/// \brief Job lifecycle states (DESIGN.md §15 state machine).
enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed };

const char* JobStateToString(JobState s);
JobState JobStateFromString(const std::string& s);

/// \brief One streamed answer event: a found entry carries SQL, the single
/// possible unfound tail entry the failure_reason instead; both carry the
/// job-scoped stats snapshot, one "stats" key per QreStats field.
struct WireAnswer {
  int index = 0;  // rank position within the job's answer stream
  bool found = false;
  std::string sql;
  std::string failure_reason;
  QreStats stats;
};

/// Conversion from an engine answer at stream position `index`.
WireAnswer ToWireAnswer(const QreAnswer& answer, int index);

struct WireDbInfo {
  std::string name;
  uint64_t tables = 0;
  uint64_t rows = 0;
};

/// \brief The `pong` event: liveness plus a coarse load snapshot, enough
/// for a load balancer's health probe without a privileged verb.
struct WirePong {
  double uptime_seconds = 0;
  uint64_t active_connections = 0;
  /// Connections refused at the wire-layer cap since start.
  uint64_t shed_connections = 0;
  uint64_t jobs_queued = 0;
  uint64_t jobs_running = 0;
  uint64_t jobs_done = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_failed = 0;
};

struct WireJobStatus {
  uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string db;
  uint64_t answers_streamed = 0;
  bool found_any = false;
  std::string failure_reason;
  uint64_t slice_bytes = 0;
  uint64_t peak_tracked_bytes = 0;
  double run_seconds = 0;
};

/// \brief One response frame. `kind` selects which fields are meaningful —
/// a tagged record rather than a class hierarchy, so serialization stays a
/// single pure function.
struct Response {
  enum class Kind {
    kAccepted,
    kAnswer,
    kDone,
    kStatus,
    kDbList,
    kError,
    kPong
  };

  Kind kind = Kind::kError;
  uint64_t job_id = 0;        // accepted / answer / done
  WireAnswer answer;          // answer
  /// answer: monotonic per-job sequence number (the stream cursor). A
  /// client resumes a broken stream with attach{job, cursor = last seq
  /// acknowledged + 1} and asserts the replayed stream is gap-free.
  uint64_t seq = 0;
  JobState state = JobState::kQueued;  // done / status
  std::string failure_reason; // done (empty = search ran to completion)
  uint64_t answers = 0;       // done: total entries streamed
  WireJobStatus status;       // status
  std::vector<WireDbInfo> dbs;  // db-list
  WirePong pong;              // pong
  WireError error = WireError::kNone;  // error
  std::string message;        // error
};

std::string SerializeResponse(const Response& resp);
Result<Response> ParseResponse(const std::string& payload);

// Convenience constructors for the server's dispatch code.
Response MakeErrorResponse(WireError code, std::string message);
Response MakeAcceptedResponse(uint64_t job_id);

}  // namespace fastqre
