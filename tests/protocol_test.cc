// Unit tests for the service wire protocol (DESIGN.md §15): the JSON value
// model, length-prefixed framing under arbitrary fragmentation, and the
// versioned request/response schema — all socket-free, exercising exactly
// the pure serialization layer of server/protocol.{h,cc}.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/json.h"
#include "server/protocol.h"

namespace fastqre {
namespace {

// ---- JSON value model ------------------------------------------------------

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(JsonValue::Null().Serialize(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Serialize(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Serialize(), "false");
  EXPECT_EQ(JsonValue::Int(-42).Serialize(), "-42");
  EXPECT_EQ(JsonValue::Int(9007199254740993).Serialize(),
            "9007199254740993");  // > 2^53: must not round through double
  EXPECT_EQ(JsonValue::Str("hi").Serialize(), "\"hi\"");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Str("a\"b\\c\n\t").Serialize(),
            "\"a\\\"b\\\\c\\n\\t\"");
  // Control characters below 0x20 escape as \u00XX.
  EXPECT_EQ(JsonValue::Str(std::string(1, '\x01')).Serialize(), "\"\\u0001\"");
  // UTF-8 passes through untouched.
  EXPECT_EQ(JsonValue::Str("caf\xc3\xa9").Serialize(), "\"caf\xc3\xa9\"");
}

TEST(JsonTest, ParseUnicodeEscapes) {
  JsonValue v = JsonValue::Parse("\"\\u00e9\"").ValueOrDie();
  EXPECT_EQ(v.AsString(), "\xc3\xa9");
  // Surrogate pair: U+1F600.
  v = JsonValue::Parse("\"\\ud83d\\ude00\"").ValueOrDie();
  EXPECT_EQ(v.AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue v = JsonValue::Object();
  v.Set("z", JsonValue::Int(1));
  v.Set("a", JsonValue::Int(2));
  v.Set("m", JsonValue::Int(3));
  EXPECT_EQ(v.Serialize(), "{\"z\":1,\"a\":2,\"m\":3}");
  // Set on an existing key overwrites in place (order unchanged).
  v.Set("a", JsonValue::Int(9));
  EXPECT_EQ(v.Serialize(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(JsonTest, NestedRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,null,true,\"x\"],\"b\":{\"c\":-7,\"d\":[]}}";
  JsonValue v = JsonValue::Parse(text).ValueOrDie();
  EXPECT_EQ(v.Serialize(), text);
  EXPECT_TRUE(v.Get("a")->at(0).is_int());
  EXPECT_FALSE(v.Get("a")->at(1).is_int());
  EXPECT_DOUBLE_EQ(v.Get("a")->at(1).AsDouble(), 2.5);
  EXPECT_EQ(v.Get("b")->GetInt("c", 0), -7);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  // Raw control character inside a string is rejected.
  EXPECT_FALSE(JsonValue::Parse("\"a\nb\"").ok());
}

TEST(JsonTest, DepthCapRejectsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  // 32 levels is comfortably inside the cap.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += "[";
  for (int i = 0; i < 32; ++i) ok += "]";
  EXPECT_TRUE(JsonValue::Parse(ok).ok());
}

TEST(JsonTest, TypedGettersFallBack) {
  JsonValue v = JsonValue::Parse("{\"s\":\"x\",\"n\":3}").ValueOrDie();
  EXPECT_EQ(v.GetString("s"), "x");
  EXPECT_EQ(v.GetString("n", "fb"), "fb");   // wrong type -> fallback
  EXPECT_EQ(v.GetInt("missing", 17), 17);    // absent -> fallback
  EXPECT_EQ(v.GetInt("n", 0), 3);
}

// ---- Framing ---------------------------------------------------------------

TEST(FramingTest, RoundTrip) {
  const std::string payload = "{\"v\":1}";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), 4 + payload.size());
  FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  std::string out;
  ASSERT_TRUE(reader.Next(&out).ValueOrDie());
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(reader.Next(&out).ValueOrDie());  // nothing left
}

TEST(FramingTest, ByteAtATimeFragmentation) {
  const std::string payload(300, 'x');
  const std::string frame = EncodeFrame(payload);
  FrameReader reader;
  std::string out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.Feed(frame.data() + i, 1);
    EXPECT_FALSE(reader.Next(&out).ValueOrDie()) << "premature frame at " << i;
  }
  reader.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(reader.Next(&out).ValueOrDie());
  EXPECT_EQ(out, payload);
}

TEST(FramingTest, CoalescedFrames) {
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    stream += EncodeFrame("payload-" + std::to_string(i));
  }
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  std::string out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reader.Next(&out).ValueOrDie());
    EXPECT_EQ(out, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(reader.Next(&out).ValueOrDie());
}

TEST(FramingTest, EmptyPayloadFrame) {
  FrameReader reader;
  const std::string frame = EncodeFrame("");
  reader.Feed(frame.data(), frame.size());
  std::string out = "sentinel";
  ASSERT_TRUE(reader.Next(&out).ValueOrDie());
  EXPECT_EQ(out, "");
}

TEST(FramingTest, OversizeLengthRejected) {
  // A hostile 4GB length must fail before any allocation.
  const char evil[4] = {'\xff', '\xff', '\xff', '\xff'};
  FrameReader reader;
  reader.Feed(evil, 4);
  std::string out;
  EXPECT_FALSE(reader.Next(&out).ok());
}

TEST(FramingTest, BufferCompaction) {
  // Many small frames through one reader: the buffer must not grow without
  // bound (lazy compaction).
  FrameReader reader;
  const std::string frame = EncodeFrame(std::string(100, 'y'));
  std::string out;
  for (int i = 0; i < 1000; ++i) {
    reader.Feed(frame.data(), frame.size());
    ASSERT_TRUE(reader.Next(&out).ValueOrDie());
  }
  // Lazy compaction keeps the buffer near its 4KB threshold, not the
  // 100KB the 1000 frames would otherwise accumulate to.
  EXPECT_LT(reader.buffered_bytes(), 8192u);
}

// ---- Request schema --------------------------------------------------------

TEST(RequestTest, SubmitRoundTrip) {
  Request req;
  req.verb = Verb::kSubmit;
  req.tenant = "acme";
  req.db = "tpch";
  req.rout_csv = "a,b\n1,2\n";
  req.options.superset = true;
  req.options.limit = 3;
  req.options.time_budget_seconds = 1.5;
  req.options.validation_threads = 4;
  req.options.alpha = 0.25;
  req.options.memory_budget_bytes = 64ull << 20;

  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kSubmit);
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.db, "tpch");
  EXPECT_EQ(back.rout_csv, "a,b\n1,2\n");
  EXPECT_TRUE(back.options.superset);
  EXPECT_EQ(back.options.limit, 3);
  EXPECT_DOUBLE_EQ(back.options.time_budget_seconds, 1.5);
  EXPECT_EQ(back.options.validation_threads, 4);
  EXPECT_DOUBLE_EQ(back.options.alpha, 0.25);
  EXPECT_EQ(back.options.memory_budget_bytes, 64ull << 20);
}

TEST(RequestTest, StatusCancelListRoundTrip) {
  Request req;
  req.verb = Verb::kStatus;
  req.job_id = 77;
  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kStatus);
  EXPECT_EQ(back.job_id, 77u);

  req.verb = Verb::kCancel;
  back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kCancel);
  EXPECT_EQ(back.job_id, 77u);

  req.verb = Verb::kListDbs;
  back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kListDbs);
}

TEST(RequestTest, SubmitIdempotencyKeyRoundTrip) {
  Request req;
  req.verb = Verb::kSubmit;
  req.db = "tpch";
  req.rout_csv = "a\n1\n";
  req.idempotency_key = "retry-7f";
  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.idempotency_key, "retry-7f");

  // Absent key parses as empty (unkeyed submit), not an error.
  req.idempotency_key.clear();
  back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_TRUE(back.idempotency_key.empty());
}

TEST(RequestTest, AttachRoundTrip) {
  Request req;
  req.verb = Verb::kAttach;
  req.job_id = 31;
  req.cursor = 4;
  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kAttach);
  EXPECT_EQ(back.job_id, 31u);
  EXPECT_EQ(back.cursor, 4u);

  // Cursor defaults to 0 (stream from the beginning).
  EXPECT_EQ(ParseRequest("{\"v\":1,\"verb\":\"attach\",\"job\":31}")
                .ValueOrDie()
                .cursor,
            0u);
  // attach needs a job id, and a negative cursor is a typed rejection.
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"verb\":\"attach\"}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"v\":1,\"verb\":\"attach\",\"job\":31,\"cursor\":-1}")
          .ok());
}

TEST(RequestTest, PingRoundTrip) {
  Request req;
  req.verb = Verb::kPing;
  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.verb, Verb::kPing);
}

TEST(RequestTest, EmptyTenantDefaults) {
  Request req;
  req.verb = Verb::kSubmit;
  req.db = "d";
  req.rout_csv = "a\n1\n";
  Request back = ParseRequest(SerializeRequest(req)).ValueOrDie();
  EXPECT_EQ(back.tenant, "default");
}

TEST(RequestTest, VersionMismatchIsTyped) {
  Result<Request> r = ParseRequest("{\"v\":2,\"verb\":\"list-dbs\"}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message().rfind("version-mismatch", 0), 0u)
      << r.status().message();
  // Missing version counts as mismatched, not defaulted.
  EXPECT_FALSE(ParseRequest("{\"verb\":\"list-dbs\"}").ok());
}

TEST(RequestTest, ValidationErrors) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[]").ok());
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"verb\":\"nope\"}").ok());
  // submit without db / rout_csv.
  EXPECT_FALSE(
      ParseRequest("{\"v\":1,\"verb\":\"submit\",\"rout_csv\":\"a\\n1\\n\"}")
          .ok());
  EXPECT_FALSE(
      ParseRequest("{\"v\":1,\"verb\":\"submit\",\"db\":\"d\"}").ok());
  // status without job id.
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"verb\":\"status\"}").ok());
  // Out-of-range options are typed rejections, not clamps.
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"verb\":\"submit\",\"db\":\"d\","
                            "\"rout_csv\":\"a\\n1\\n\","
                            "\"options\":{\"limit\":0}}")
                   .ok());
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"verb\":\"submit\",\"db\":\"d\","
                            "\"rout_csv\":\"a\\n1\\n\","
                            "\"options\":{\"alpha\":1.5}}")
                   .ok());
}

// ---- Response schema -------------------------------------------------------

TEST(ResponseTest, AcceptedRoundTrip) {
  Response back =
      ParseResponse(SerializeResponse(MakeAcceptedResponse(12))).ValueOrDie();
  EXPECT_EQ(back.kind, Response::Kind::kAccepted);
  EXPECT_EQ(back.job_id, 12u);
}

TEST(ResponseTest, AnswerRoundTrip) {
  Response resp;
  resp.kind = Response::Kind::kAnswer;
  resp.job_id = 5;
  resp.answer.index = 2;
  resp.answer.found = true;
  resp.answer.sql = "SELECT a.x FROM t a";
  resp.answer.stats.total_seconds = 0.125;
  resp.answer.stats.candidates_validated = 9;
  resp.answer.stats.peak_tracked_bytes = 4096;

  resp.seq = 2;

  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  EXPECT_EQ(back.kind, Response::Kind::kAnswer);
  EXPECT_EQ(back.job_id, 5u);
  EXPECT_EQ(back.seq, 2u);
  EXPECT_EQ(back.answer.index, 2);
  EXPECT_TRUE(back.answer.found);
  EXPECT_EQ(back.answer.sql, "SELECT a.x FROM t a");
  EXPECT_DOUBLE_EQ(back.answer.stats.total_seconds, 0.125);
  EXPECT_EQ(back.answer.stats.candidates_validated, 9u);
  EXPECT_EQ(back.answer.stats.peak_tracked_bytes, 4096u);
}

TEST(ResponseTest, UnfoundAnswerCarriesFailureReason) {
  Response resp;
  resp.kind = Response::Kind::kAnswer;
  resp.answer.found = false;
  resp.answer.failure_reason = "cancelled";
  resp.answer.stats.cancelled = true;
  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  EXPECT_FALSE(back.answer.found);
  EXPECT_EQ(back.answer.failure_reason, "cancelled");
  EXPECT_TRUE(back.answer.stats.cancelled);
  EXPECT_TRUE(back.answer.sql.empty());
}

TEST(ResponseTest, DoneRoundTrip) {
  Response resp;
  resp.kind = Response::Kind::kDone;
  resp.job_id = 8;
  resp.state = JobState::kCancelled;
  resp.failure_reason = "cancelled";
  resp.answers = 3;
  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  EXPECT_EQ(back.kind, Response::Kind::kDone);
  EXPECT_EQ(back.state, JobState::kCancelled);
  EXPECT_EQ(back.failure_reason, "cancelled");
  EXPECT_EQ(back.answers, 3u);
}

TEST(ResponseTest, StatusRoundTrip) {
  Response resp;
  resp.kind = Response::Kind::kStatus;
  resp.status.job_id = 4;
  resp.status.state = JobState::kRunning;
  resp.status.tenant = "t";
  resp.status.db = "d";
  resp.status.answers_streamed = 2;
  resp.status.found_any = true;
  resp.status.slice_bytes = 1024;
  resp.status.peak_tracked_bytes = 512;
  resp.status.run_seconds = 0.5;
  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  EXPECT_EQ(back.status.job_id, 4u);
  EXPECT_EQ(back.status.state, JobState::kRunning);
  EXPECT_EQ(back.status.tenant, "t");
  EXPECT_EQ(back.status.answers_streamed, 2u);
  EXPECT_TRUE(back.status.found_any);
  EXPECT_EQ(back.status.slice_bytes, 1024u);
  EXPECT_DOUBLE_EQ(back.status.run_seconds, 0.5);
}

TEST(ResponseTest, DbListRoundTrip) {
  Response resp;
  resp.kind = Response::Kind::kDbList;
  resp.dbs.push_back({"alpha", 3, 100});
  resp.dbs.push_back({"beta", 8, 86498});
  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  ASSERT_EQ(back.dbs.size(), 2u);
  EXPECT_EQ(back.dbs[0].name, "alpha");
  EXPECT_EQ(back.dbs[1].rows, 86498u);
}

TEST(ResponseTest, ErrorRoundTripAllCodes) {
  for (WireError code :
       {WireError::kInvalidArgument, WireError::kVersionMismatch,
        WireError::kNotFound, WireError::kRateLimited, WireError::kSaturated,
        WireError::kBudgetExhausted, WireError::kOverloaded,
        WireError::kTimeout, WireError::kShuttingDown, WireError::kInternal}) {
    Response back =
        ParseResponse(SerializeResponse(MakeErrorResponse(code, "m")))
            .ValueOrDie();
    EXPECT_EQ(back.kind, Response::Kind::kError);
    EXPECT_EQ(back.error, code) << WireErrorToString(code);
    EXPECT_EQ(back.message, "m");
  }
}

TEST(ResponseTest, RetryMatrix) {
  // Transient load / pacing conditions are retryable; everything the client
  // caused (or that a retry cannot fix) is not. Mirrors DESIGN.md §15.5.
  EXPECT_TRUE(IsRetryableWireError(WireError::kRateLimited));
  EXPECT_TRUE(IsRetryableWireError(WireError::kSaturated));
  EXPECT_TRUE(IsRetryableWireError(WireError::kBudgetExhausted));
  EXPECT_TRUE(IsRetryableWireError(WireError::kOverloaded));
  EXPECT_TRUE(IsRetryableWireError(WireError::kTimeout));
  EXPECT_FALSE(IsRetryableWireError(WireError::kInvalidArgument));
  EXPECT_FALSE(IsRetryableWireError(WireError::kVersionMismatch));
  EXPECT_FALSE(IsRetryableWireError(WireError::kNotFound));
  EXPECT_FALSE(IsRetryableWireError(WireError::kShuttingDown));
  EXPECT_FALSE(IsRetryableWireError(WireError::kInternal));
  EXPECT_FALSE(IsRetryableWireError(WireError::kNone));
}

TEST(ResponseTest, PongRoundTrip) {
  Response resp;
  resp.kind = Response::Kind::kPong;
  resp.pong.uptime_seconds = 12.5;
  resp.pong.active_connections = 3;
  resp.pong.shed_connections = 7;
  resp.pong.jobs_queued = 1;
  resp.pong.jobs_running = 2;
  resp.pong.jobs_done = 40;
  resp.pong.jobs_cancelled = 4;
  resp.pong.jobs_failed = 5;
  Response back = ParseResponse(SerializeResponse(resp)).ValueOrDie();
  EXPECT_EQ(back.kind, Response::Kind::kPong);
  EXPECT_DOUBLE_EQ(back.pong.uptime_seconds, 12.5);
  EXPECT_EQ(back.pong.active_connections, 3u);
  EXPECT_EQ(back.pong.shed_connections, 7u);
  EXPECT_EQ(back.pong.jobs_queued, 1u);
  EXPECT_EQ(back.pong.jobs_running, 2u);
  EXPECT_EQ(back.pong.jobs_done, 40u);
  EXPECT_EQ(back.pong.jobs_cancelled, 4u);
  EXPECT_EQ(back.pong.jobs_failed, 5u);
}

TEST(ResponseTest, JobStateStringsRoundTrip) {
  for (JobState s : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                     JobState::kCancelled, JobState::kFailed}) {
    EXPECT_EQ(JobStateFromString(JobStateToString(s)), s);
  }
}

TEST(ResponseTest, UnknownKindRejected) {
  EXPECT_FALSE(ParseResponse("{\"v\":1,\"kind\":\"mystery\"}").ok());
  EXPECT_FALSE(ParseResponse("{\"v\":9,\"kind\":\"accepted\"}").ok());
}

}  // namespace
}  // namespace fastqre
