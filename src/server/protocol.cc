#include "server/protocol.h"

#include <cstring>

#include "server/json.h"

namespace fastqre {
namespace {

// Wire field names are terse on purpose: frames are per-answer, and the
// bench pushes thousands of them. Abbreviating costs nothing in clarity
// because this file is the only place they appear.
constexpr char kFieldVersion[] = "v";
constexpr char kFieldVerb[] = "verb";
constexpr char kFieldKind[] = "kind";

uint32_t DecodeLength(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<uint32_t>(u[0]) << 24) |
         (static_cast<uint32_t>(u[1]) << 16) |
         (static_cast<uint32_t>(u[2]) << 8) | static_cast<uint32_t>(u[3]);
}

JsonValue OptionsToJson(const WireOptions& o) {
  JsonValue v = JsonValue::Object();
  v.Set("superset", JsonValue::Bool(o.superset));
  v.Set("limit", JsonValue::Int(o.limit));
  v.Set("time_budget_seconds", JsonValue::Double(o.time_budget_seconds));
  v.Set("validation_threads", JsonValue::Int(o.validation_threads));
  v.Set("alpha", JsonValue::Double(o.alpha));
  v.Set("memory_budget_bytes",
        JsonValue::Int(static_cast<int64_t>(o.memory_budget_bytes)));
  return v;
}

WireOptions OptionsFromJson(const JsonValue& v) {
  WireOptions o;
  o.superset = v.GetBool("superset", o.superset);
  o.limit = static_cast<int>(v.GetInt("limit", o.limit));
  o.time_budget_seconds =
      v.GetDouble("time_budget_seconds", o.time_budget_seconds);
  o.validation_threads =
      static_cast<int>(v.GetInt("validation_threads", o.validation_threads));
  o.alpha = v.GetDouble("alpha", o.alpha);
  o.memory_budget_bytes = static_cast<uint64_t>(
      v.GetInt("memory_budget_bytes",
               static_cast<int64_t>(o.memory_budget_bytes)));
  return o;
}

// One QreStats field as a wire "stats" member, and back.
JsonValue StatToJson(double v) { return JsonValue::Double(v); }
JsonValue StatToJson(const RelaxedCounter& v) {
  return JsonValue::Int(static_cast<int64_t>(v.value()));
}
JsonValue StatToJson(bool v) { return JsonValue::Bool(v); }

void StatFromJson(const JsonValue& v, const char* key, double* out) {
  *out = v.GetDouble(key, 0);
}
void StatFromJson(const JsonValue& v, const char* key, RelaxedCounter* out) {
  *out = static_cast<uint64_t>(v.GetInt(key, 0));
}
void StatFromJson(const JsonValue& v, const char* key, bool* out) {
  *out = v.GetBool(key, false);
}

JsonValue AnswerToJson(const WireAnswer& a) {
  JsonValue v = JsonValue::Object();
  v.Set("index", JsonValue::Int(a.index));
  v.Set("found", JsonValue::Bool(a.found));
  if (a.found) {
    v.Set("sql", JsonValue::Str(a.sql));
  } else {
    v.Set("failure_reason", JsonValue::Str(a.failure_reason));
  }
  JsonValue stats = JsonValue::Object();
  QreStats::ForEachField(a.stats, [&stats](const char* name, const char*,
                                           const auto& field) {
    stats.Set(name, StatToJson(field));
  });
  v.Set("stats", std::move(stats));
  return v;
}

WireAnswer AnswerFromJson(const JsonValue& v) {
  WireAnswer a;
  a.index = static_cast<int>(v.GetInt("index", 0));
  a.found = v.GetBool("found", false);
  a.sql = v.GetString("sql");
  a.failure_reason = v.GetString("failure_reason");
  if (const JsonValue* stats = v.Get("stats"); stats && stats->is_object()) {
    QreStats::ForEachField(a.stats, [stats](const char* name, const char*,
                                            auto& field) {
      StatFromJson(*stats, name, &field);
    });
  }
  return a;
}

JsonValue StatusToJson(const WireJobStatus& s) {
  JsonValue v = JsonValue::Object();
  v.Set("job", JsonValue::Int(static_cast<int64_t>(s.job_id)));
  v.Set("state", JsonValue::Str(JobStateToString(s.state)));
  v.Set("tenant", JsonValue::Str(s.tenant));
  v.Set("db", JsonValue::Str(s.db));
  v.Set("answers_streamed",
        JsonValue::Int(static_cast<int64_t>(s.answers_streamed)));
  v.Set("found_any", JsonValue::Bool(s.found_any));
  v.Set("failure_reason", JsonValue::Str(s.failure_reason));
  v.Set("slice_bytes", JsonValue::Int(static_cast<int64_t>(s.slice_bytes)));
  v.Set("peak_tracked_bytes",
        JsonValue::Int(static_cast<int64_t>(s.peak_tracked_bytes)));
  v.Set("run_seconds", JsonValue::Double(s.run_seconds));
  return v;
}

WireJobStatus StatusFromJson(const JsonValue& v) {
  WireJobStatus s;
  s.job_id = static_cast<uint64_t>(v.GetInt("job", 0));
  s.state = JobStateFromString(v.GetString("state", "queued"));
  s.tenant = v.GetString("tenant");
  s.db = v.GetString("db");
  s.answers_streamed = static_cast<uint64_t>(v.GetInt("answers_streamed", 0));
  s.found_any = v.GetBool("found_any", false);
  s.failure_reason = v.GetString("failure_reason");
  s.slice_bytes = static_cast<uint64_t>(v.GetInt("slice_bytes", 0));
  s.peak_tracked_bytes =
      static_cast<uint64_t>(v.GetInt("peak_tracked_bytes", 0));
  s.run_seconds = v.GetDouble("run_seconds", 0);
  return s;
}

}  // namespace

// ---- Framing ---------------------------------------------------------------

std::string EncodeFrame(const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame.append(payload);
  return frame;
}

Result<bool> FrameReader::Next(std::string* out) {
  // Compact lazily: drop already-consumed bytes once they dominate the
  // buffer, so a long-lived connection doesn't grow without bound but a
  // burst of small frames doesn't memmove per frame either.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return false;
  const uint32_t len = DecodeLength(buffer_.data() + consumed_);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " exceeds cap " +
                                   std::to_string(kMaxFramePayload));
  }
  if (avail < 4 + static_cast<size_t>(len)) return false;
  out->assign(buffer_, consumed_ + 4, len);
  consumed_ += 4 + static_cast<size_t>(len);
  return true;
}

// ---- Enum <-> string -------------------------------------------------------

const char* VerbToString(Verb verb) {
  switch (verb) {
    case Verb::kSubmit:
      return "submit";
    case Verb::kStatus:
      return "status";
    case Verb::kCancel:
      return "cancel";
    case Verb::kListDbs:
      return "list-dbs";
    case Verb::kAttach:
      return "attach";
    case Verb::kPing:
      return "ping";
  }
  return "list-dbs";
}

const char* WireErrorToString(WireError code) {
  switch (code) {
    case WireError::kNone:
      return "none";
    case WireError::kInvalidArgument:
      return "invalid-argument";
    case WireError::kVersionMismatch:
      return "version-mismatch";
    case WireError::kNotFound:
      return "not-found";
    case WireError::kRateLimited:
      return "rate-limited";
    case WireError::kSaturated:
      return "saturated";
    case WireError::kBudgetExhausted:
      return "budget-exhausted";
    case WireError::kOverloaded:
      return "overloaded";
    case WireError::kTimeout:
      return "timeout";
    case WireError::kShuttingDown:
      return "shutting-down";
    case WireError::kInternal:
      return "internal";
  }
  return "internal";
}

WireError WireErrorFromString(const std::string& s) {
  if (s == "none") return WireError::kNone;
  if (s == "invalid-argument") return WireError::kInvalidArgument;
  if (s == "version-mismatch") return WireError::kVersionMismatch;
  if (s == "not-found") return WireError::kNotFound;
  if (s == "rate-limited") return WireError::kRateLimited;
  if (s == "saturated") return WireError::kSaturated;
  if (s == "budget-exhausted") return WireError::kBudgetExhausted;
  if (s == "overloaded") return WireError::kOverloaded;
  if (s == "timeout") return WireError::kTimeout;
  if (s == "shutting-down") return WireError::kShuttingDown;
  return WireError::kInternal;
}

bool IsRetryableWireError(WireError code) {
  switch (code) {
    case WireError::kRateLimited:
    case WireError::kSaturated:
    case WireError::kBudgetExhausted:
    case WireError::kOverloaded:
    case WireError::kTimeout:
      return true;
    default:
      return false;
  }
}

const char* JobStateToString(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
  }
  return "failed";
}

JobState JobStateFromString(const std::string& s) {
  if (s == "queued") return JobState::kQueued;
  if (s == "running") return JobState::kRunning;
  if (s == "done") return JobState::kDone;
  if (s == "cancelled") return JobState::kCancelled;
  return JobState::kFailed;
}

// ---- Requests --------------------------------------------------------------

std::string SerializeRequest(const Request& req) {
  JsonValue v = JsonValue::Object();
  v.Set(kFieldVersion, JsonValue::Int(req.version));
  v.Set(kFieldVerb, JsonValue::Str(VerbToString(req.verb)));
  switch (req.verb) {
    case Verb::kSubmit:
      v.Set("tenant", JsonValue::Str(req.tenant));
      v.Set("db", JsonValue::Str(req.db));
      v.Set("rout_csv", JsonValue::Str(req.rout_csv));
      v.Set("options", OptionsToJson(req.options));
      if (!req.idempotency_key.empty()) {
        v.Set("idempotency_key", JsonValue::Str(req.idempotency_key));
      }
      break;
    case Verb::kStatus:
    case Verb::kCancel:
      v.Set("job", JsonValue::Int(static_cast<int64_t>(req.job_id)));
      break;
    case Verb::kAttach:
      v.Set("job", JsonValue::Int(static_cast<int64_t>(req.job_id)));
      v.Set("cursor", JsonValue::Int(static_cast<int64_t>(req.cursor)));
      break;
    case Verb::kListDbs:
    case Verb::kPing:
      break;
  }
  return v.Serialize();
}

Result<Request> ParseRequest(const std::string& payload) {
  Result<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = *parsed;
  if (!v.is_object()) {
    return Status::InvalidArgument("request payload is not a JSON object");
  }
  Request req;
  req.version = static_cast<int>(v.GetInt(kFieldVersion, 0));
  if (req.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "version-mismatch: server speaks protocol version " +
        std::to_string(kProtocolVersion) + ", request carries " +
        std::to_string(req.version));
  }
  const std::string verb = v.GetString(kFieldVerb);
  if (verb == "submit") {
    req.verb = Verb::kSubmit;
    req.tenant = v.GetString("tenant", "default");
    if (req.tenant.empty()) req.tenant = "default";
    req.db = v.GetString("db");
    if (req.db.empty()) {
      return Status::InvalidArgument("submit request is missing \"db\"");
    }
    req.rout_csv = v.GetString("rout_csv");
    if (req.rout_csv.empty()) {
      return Status::InvalidArgument("submit request is missing \"rout_csv\"");
    }
    if (const JsonValue* opts = v.Get("options"); opts && opts->is_object()) {
      req.options = OptionsFromJson(*opts);
    }
    if (req.options.limit < 1) {
      return Status::InvalidArgument("options.limit must be >= 1");
    }
    if (req.options.validation_threads < 1) {
      return Status::InvalidArgument(
          "options.validation_threads must be >= 1");
    }
    if (req.options.alpha < 0.0 || req.options.alpha > 1.0) {
      return Status::InvalidArgument("options.alpha must be in [0, 1]");
    }
    if (req.options.time_budget_seconds < 0.0) {
      return Status::InvalidArgument(
          "options.time_budget_seconds must be >= 0");
    }
    req.idempotency_key = v.GetString("idempotency_key");
  } else if (verb == "status" || verb == "cancel" || verb == "attach") {
    req.verb = verb == "status"   ? Verb::kStatus
               : verb == "cancel" ? Verb::kCancel
                                  : Verb::kAttach;
    const JsonValue* job = v.Get("job");
    if (job == nullptr || !job->is_number()) {
      return Status::InvalidArgument(verb + " request is missing \"job\"");
    }
    req.job_id = static_cast<uint64_t>(job->AsInt());
    if (req.verb == Verb::kAttach) {
      const int64_t cursor = v.GetInt("cursor", 0);
      if (cursor < 0) {
        return Status::InvalidArgument("attach cursor must be >= 0");
      }
      req.cursor = static_cast<uint64_t>(cursor);
    }
  } else if (verb == "list-dbs") {
    req.verb = Verb::kListDbs;
  } else if (verb == "ping") {
    req.verb = Verb::kPing;
  } else {
    return Status::InvalidArgument("unknown verb \"" + verb + "\"");
  }
  return req;
}

// ---- Responses -------------------------------------------------------------

WireAnswer ToWireAnswer(const QreAnswer& answer, int index) {
  WireAnswer a;
  a.index = index;
  a.found = answer.found;
  a.sql = answer.sql;
  a.failure_reason = answer.failure_reason;
  a.stats = answer.stats;
  return a;
}

std::string SerializeResponse(const Response& resp) {
  JsonValue v = JsonValue::Object();
  v.Set(kFieldVersion, JsonValue::Int(kProtocolVersion));
  switch (resp.kind) {
    case Response::Kind::kAccepted:
      v.Set(kFieldKind, JsonValue::Str("accepted"));
      v.Set("job", JsonValue::Int(static_cast<int64_t>(resp.job_id)));
      break;
    case Response::Kind::kAnswer:
      v.Set(kFieldKind, JsonValue::Str("answer"));
      v.Set("job", JsonValue::Int(static_cast<int64_t>(resp.job_id)));
      v.Set("seq", JsonValue::Int(static_cast<int64_t>(resp.seq)));
      v.Set("answer", AnswerToJson(resp.answer));
      break;
    case Response::Kind::kDone:
      v.Set(kFieldKind, JsonValue::Str("done"));
      v.Set("job", JsonValue::Int(static_cast<int64_t>(resp.job_id)));
      v.Set("state", JsonValue::Str(JobStateToString(resp.state)));
      v.Set("failure_reason", JsonValue::Str(resp.failure_reason));
      v.Set("answers", JsonValue::Int(static_cast<int64_t>(resp.answers)));
      break;
    case Response::Kind::kStatus:
      v.Set(kFieldKind, JsonValue::Str("status"));
      v.Set("status", StatusToJson(resp.status));
      break;
    case Response::Kind::kDbList: {
      v.Set(kFieldKind, JsonValue::Str("db-list"));
      JsonValue dbs = JsonValue::Array();
      for (const WireDbInfo& db : resp.dbs) {
        JsonValue d = JsonValue::Object();
        d.Set("name", JsonValue::Str(db.name));
        d.Set("tables", JsonValue::Int(static_cast<int64_t>(db.tables)));
        d.Set("rows", JsonValue::Int(static_cast<int64_t>(db.rows)));
        dbs.Append(std::move(d));
      }
      v.Set("dbs", std::move(dbs));
      break;
    }
    case Response::Kind::kPong: {
      v.Set(kFieldKind, JsonValue::Str("pong"));
      JsonValue p = JsonValue::Object();
      p.Set("uptime_seconds", JsonValue::Double(resp.pong.uptime_seconds));
      p.Set("active_connections",
            JsonValue::Int(static_cast<int64_t>(
                resp.pong.active_connections)));
      p.Set("shed_connections",
            JsonValue::Int(static_cast<int64_t>(resp.pong.shed_connections)));
      JsonValue jobs = JsonValue::Object();
      jobs.Set("queued",
               JsonValue::Int(static_cast<int64_t>(resp.pong.jobs_queued)));
      jobs.Set("running",
               JsonValue::Int(static_cast<int64_t>(resp.pong.jobs_running)));
      jobs.Set("done",
               JsonValue::Int(static_cast<int64_t>(resp.pong.jobs_done)));
      jobs.Set("cancelled",
               JsonValue::Int(static_cast<int64_t>(resp.pong.jobs_cancelled)));
      jobs.Set("failed",
               JsonValue::Int(static_cast<int64_t>(resp.pong.jobs_failed)));
      p.Set("jobs", std::move(jobs));
      v.Set("pong", std::move(p));
      break;
    }
    case Response::Kind::kError:
      v.Set(kFieldKind, JsonValue::Str("error"));
      v.Set("error", JsonValue::Str(WireErrorToString(resp.error)));
      v.Set("message", JsonValue::Str(resp.message));
      break;
  }
  return v.Serialize();
}

Result<Response> ParseResponse(const std::string& payload) {
  Result<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = *parsed;
  if (!v.is_object()) {
    return Status::InvalidArgument("response payload is not a JSON object");
  }
  const int version = static_cast<int>(v.GetInt(kFieldVersion, 0));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "version-mismatch: response carries protocol version " +
        std::to_string(version));
  }
  Response resp;
  const std::string kind = v.GetString(kFieldKind);
  if (kind == "accepted") {
    resp.kind = Response::Kind::kAccepted;
    resp.job_id = static_cast<uint64_t>(v.GetInt("job", 0));
  } else if (kind == "answer") {
    resp.kind = Response::Kind::kAnswer;
    resp.job_id = static_cast<uint64_t>(v.GetInt("job", 0));
    resp.seq = static_cast<uint64_t>(v.GetInt("seq", 0));
    const JsonValue* answer = v.Get("answer");
    if (answer == nullptr || !answer->is_object()) {
      return Status::InvalidArgument("answer response is missing \"answer\"");
    }
    resp.answer = AnswerFromJson(*answer);
  } else if (kind == "done") {
    resp.kind = Response::Kind::kDone;
    resp.job_id = static_cast<uint64_t>(v.GetInt("job", 0));
    resp.state = JobStateFromString(v.GetString("state", "done"));
    resp.failure_reason = v.GetString("failure_reason");
    resp.answers = static_cast<uint64_t>(v.GetInt("answers", 0));
  } else if (kind == "status") {
    resp.kind = Response::Kind::kStatus;
    const JsonValue* status = v.Get("status");
    if (status == nullptr || !status->is_object()) {
      return Status::InvalidArgument("status response is missing \"status\"");
    }
    resp.status = StatusFromJson(*status);
  } else if (kind == "db-list") {
    resp.kind = Response::Kind::kDbList;
    if (const JsonValue* dbs = v.Get("dbs"); dbs && dbs->is_array()) {
      for (size_t i = 0; i < dbs->size(); ++i) {
        const JsonValue& d = dbs->at(i);
        if (!d.is_object()) continue;
        WireDbInfo info;
        info.name = d.GetString("name");
        info.tables = static_cast<uint64_t>(d.GetInt("tables", 0));
        info.rows = static_cast<uint64_t>(d.GetInt("rows", 0));
        resp.dbs.push_back(std::move(info));
      }
    }
  } else if (kind == "pong") {
    resp.kind = Response::Kind::kPong;
    const JsonValue* p = v.Get("pong");
    if (p == nullptr || !p->is_object()) {
      return Status::InvalidArgument("pong response is missing \"pong\"");
    }
    resp.pong.uptime_seconds = p->GetDouble("uptime_seconds", 0);
    resp.pong.active_connections =
        static_cast<uint64_t>(p->GetInt("active_connections", 0));
    resp.pong.shed_connections =
        static_cast<uint64_t>(p->GetInt("shed_connections", 0));
    if (const JsonValue* jobs = p->Get("jobs"); jobs && jobs->is_object()) {
      resp.pong.jobs_queued =
          static_cast<uint64_t>(jobs->GetInt("queued", 0));
      resp.pong.jobs_running =
          static_cast<uint64_t>(jobs->GetInt("running", 0));
      resp.pong.jobs_done = static_cast<uint64_t>(jobs->GetInt("done", 0));
      resp.pong.jobs_cancelled =
          static_cast<uint64_t>(jobs->GetInt("cancelled", 0));
      resp.pong.jobs_failed =
          static_cast<uint64_t>(jobs->GetInt("failed", 0));
    }
  } else if (kind == "error") {
    resp.kind = Response::Kind::kError;
    resp.error = WireErrorFromString(v.GetString("error", "internal"));
    resp.message = v.GetString("message");
  } else {
    return Status::InvalidArgument("unknown response kind \"" + kind + "\"");
  }
  return resp;
}

Response MakeErrorResponse(WireError code, std::string message) {
  Response resp;
  resp.kind = Response::Kind::kError;
  resp.error = code;
  resp.message = std::move(message);
  return resp;
}

Response MakeAcceptedResponse(uint64_t job_id) {
  Response resp;
  resp.kind = Response::Kind::kAccepted;
  resp.job_id = job_id;
  return resp;
}

}  // namespace fastqre
