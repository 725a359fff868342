// Wire-layer fault-tolerance tests (DESIGN.md §15.5): connection deadlines,
// load shedding, adversarial byte streams, resumable sequence-numbered
// streams via attach, idempotent submits, and the deterministic socket
// chaos sites (wire-accept / wire-read / wire-write). Each scenario asserts
// the server answers with typed errors or drops the connection — never
// hangs, crashes, or leaks a connection thread (the registry must return
// to baseline; a wedged thread would hang Stop() and trip the ctest
// timeout).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "server/server.h"
#include "storage/csv.h"
#include "test_client.h"

namespace fastqre {
namespace {

/// One streamed job as observed on the wire: raw answer payloads by
/// sequence number, plus the terminal frame.
struct ObservedStream {
  uint64_t job_id = 0;
  std::vector<std::string> answer_payloads;  // index == seq
  std::vector<uint64_t> seqs;
  bool done = false;
  uint64_t done_answers = 0;
  JobState done_state = JobState::kQueued;
};

/// Reads a stream until done / EOF, asserting sequence numbers are exactly
/// `first_seq, first_seq + 1, ...` with no gaps.
ObservedStream DrainStream(TestClient* client, uint64_t first_seq) {
  ObservedStream out;
  std::string payload;
  uint64_t expect_seq = first_seq;
  while (client->ReceiveFrame(&payload)) {
    const Response resp = ParseResponse(payload).ValueOrDie();
    if (resp.kind == Response::Kind::kAccepted) {
      out.job_id = resp.job_id;
      continue;
    }
    if (resp.kind == Response::Kind::kAnswer) {
      EXPECT_EQ(resp.seq, expect_seq) << "gap in answer stream";
      ++expect_seq;
      out.seqs.push_back(resp.seq);
      out.answer_payloads.push_back(payload);
      continue;
    }
    if (resp.kind == Response::Kind::kDone) {
      out.done = true;
      out.done_answers = resp.answers;
      out.done_state = resp.state;
    }
    break;
  }
  return out;
}

class WireChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
    JobManagerConfig config;
    config.worker_threads = 2;
    config.admission.max_in_flight_jobs = 16;
    manager_ = std::make_unique<JobManager>(config);
    ASSERT_TRUE(manager_->AttachDatabase("tpch", &db_).ok());
  }

  void TearDown() override {
    for (auto& server : servers_) server->Stop();
    manager_->Shutdown();
  }

  /// Starts a server over the shared manager (several may coexist — a
  /// chaos-injecting front end and a clean one both serving the same jobs).
  Server* StartServer(ServerConfig config) {
    servers_.push_back(std::make_unique<Server>(manager_.get(), config));
    Server* server = servers_.back().get();
    EXPECT_TRUE(server->Start().ok());
    EXPECT_NE(server->port(), 0);
    return server;
  }

  Request Submit(const std::string& workload_name, int limit = 1) const {
    const WorkloadQuery* wq = nullptr;
    for (const auto& q : workload_) {
      if (q.name == workload_name) wq = &q;
    }
    EXPECT_NE(wq, nullptr);
    Request req;
    req.verb = Verb::kSubmit;
    req.db = "tpch";
    req.rout_csv = TableToCsv(wq->rout);
    req.options.limit = limit;
    return req;
  }

  static Request Attach(uint64_t job_id, uint64_t cursor) {
    Request req;
    req.verb = Verb::kAttach;
    req.job_id = job_id;
    req.cursor = cursor;
    return req;
  }

  /// Polls until the server's connection registry drains — the
  /// thread-reclamation baseline every chaos scenario must return to.
  static void ExpectConnectionsDrain(const Server& server) {
    for (int i = 0; i < 200; ++i) {
      if (server.active_connections() == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    FAIL() << "connections never drained: " << server.active_connections()
           << " still registered";
  }

  Database db_;
  std::vector<WorkloadQuery> workload_;
  std::unique_ptr<JobManager> manager_;
  std::vector<std::unique_ptr<Server>> servers_;
};

// ---- Spec plumbing ---------------------------------------------------------

TEST_F(WireChaosTest, WireFaultKindsParse) {
  EXPECT_TRUE(FaultInjector::Parse("wire-write=short-write").ok());
  EXPECT_TRUE(FaultInjector::Parse("wire-read=reset@3").ok());
  EXPECT_TRUE(FaultInjector::Parse("wire-accept=stall,wire-write=garbage@2")
                  .ok());
  EXPECT_FALSE(FaultInjector::Parse("wire-write=explode").ok());
  EXPECT_FALSE(FaultInjector::Parse("wire-write=reset@5..2").ok());
  EXPECT_FALSE(FaultInjector::Parse("wire-write=reset@2..x").ok());

  // Windowed rules fire on hits [n, m] only — what makes a destructive
  // kind like reset recoverable within one server's lifetime.
  auto windowed = FaultInjector::Parse("w=reset@2..3").ValueOrDie();
  EXPECT_FALSE(windowed->Hit("w").reset);  // hit 1
  EXPECT_TRUE(windowed->Hit("w").reset);   // hit 2
  EXPECT_TRUE(windowed->Hit("w").reset);   // hit 3
  EXPECT_FALSE(windowed->Hit("w").reset);  // hit 4

  // A malformed spec fails Start(), not silently serves without chaos.
  ServerConfig config;
  config.fault_spec = "wire-write=explode";
  Server server(manager_.get(), config);
  EXPECT_FALSE(server.Start().ok());
}

// ---- ping ------------------------------------------------------------------

TEST_F(WireChaosTest, PingReportsServerLoad) {
  Server* server = StartServer(ServerConfig{});
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Submit("L01")));
  const ObservedStream stream = DrainStream(&client, 0);
  ASSERT_TRUE(stream.done);

  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(client.Send(ping));
  const Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kPong);
  EXPECT_GE(resp.pong.uptime_seconds, 0.0);
  EXPECT_GE(resp.pong.active_connections, 1u);  // at least this connection
  EXPECT_EQ(resp.pong.shed_connections, 0u);
  EXPECT_GE(resp.pong.jobs_done, 1u);
  EXPECT_EQ(resp.pong.jobs_failed, 0u);
}

// ---- Load shedding ---------------------------------------------------------

TEST_F(WireChaosTest, ConnectionsOverCapGetTypedOverloaded) {
  ServerConfig config;
  config.max_connections = 2;
  Server* server = StartServer(config);

  TestClient c1(server->port()), c2(server->port());
  ASSERT_TRUE(c1.connected());
  ASSERT_TRUE(c2.connected());
  // Registration happens on the acceptor thread; wait for both.
  for (int i = 0; i < 100 && server->active_connections() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server->active_connections(), 2u);

  TestClient c3(server->port());
  ASSERT_TRUE(c3.connected());
  std::string payload;
  ASSERT_TRUE(c3.ReceiveFrame(&payload));
  const Response resp = ParseResponse(payload).ValueOrDie();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kOverloaded);
  EXPECT_TRUE(IsRetryableWireError(resp.error));
  EXPECT_FALSE(c3.ReceiveFrame(&payload));  // then EOF
  EXPECT_EQ(server->shed_connections(), 1u);

  // Capacity frees as connections end: close one, the next client serves.
  c1.Close();
  for (int i = 0; i < 100 && server->active_connections() >= 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  TestClient c4(server->port());
  ASSERT_TRUE(c4.connected());
  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(c4.Send(ping));
  EXPECT_EQ(c4.Receive().kind, Response::Kind::kPong);
}

// ---- Deadlines -------------------------------------------------------------

TEST_F(WireChaosTest, IdleConnectionGetsTypedTimeoutThenClose) {
  ServerConfig config;
  config.idle_timeout_ms = 200;
  Server* server = StartServer(config);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  std::string payload;
  ASSERT_TRUE(client.ReceiveFrame(&payload));  // blocks ~200ms, then frame
  const Response resp = ParseResponse(payload).ValueOrDie();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kTimeout);
  EXPECT_FALSE(client.ReceiveFrame(&payload));  // then EOF
  ExpectConnectionsDrain(*server);
}

TEST_F(WireChaosTest, SingleByteTrickleStillServedWhileNotIdle) {
  ServerConfig config;
  config.idle_timeout_ms = 500;
  Server* server = StartServer(config);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  Request req;
  req.verb = Verb::kListDbs;
  const std::string frame = EncodeFrame(SerializeRequest(req));
  // Trickle one byte at a time: each byte resets the idle clock, so a slow
  // but live client is served, not timed out.
  for (char byte : frame) {
    ASSERT_TRUE(client.SendRaw(std::string(1, byte)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kDbList);
  ASSERT_EQ(resp.dbs.size(), 1u);
}

// ---- Adversarial bytes -----------------------------------------------------

TEST_F(WireChaosTest, AdversarialBytesGetTypedErrorsOrDropsNeverWedge) {
  ServerConfig config;
  config.idle_timeout_ms = 300;  // bounds the truncated-frame case
  Server* server = StartServer(config);
  Rng rng(17);

  {
    // Oversize length prefix: typed error, then drop.
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    const char evil[4] = {'\x7f', '\xff', '\xff', '\xff'};
    ASSERT_TRUE(client.SendRaw(std::string(evil, 4)));
    std::string payload;
    ASSERT_TRUE(client.ReceiveFrame(&payload));
    const Response resp = ParseResponse(payload).ValueOrDie();
    ASSERT_EQ(resp.kind, Response::Kind::kError);
    EXPECT_EQ(resp.error, WireError::kInvalidArgument);
    EXPECT_FALSE(client.ReceiveFrame(&payload));
  }
  {
    // Truncated frame (header promises more than ever arrives): the server
    // must not wait forever — the idle deadline reaps the connection.
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    const char header[4] = {'\x00', '\x00', '\x01', '\x00'};  // 256 bytes
    ASSERT_TRUE(client.SendRaw(std::string(header, 4) + "only a few"));
    std::string payload;
    ASSERT_TRUE(client.ReceiveFrame(&payload));
    const Response resp = ParseResponse(payload).ValueOrDie();
    ASSERT_EQ(resp.kind, Response::Kind::kError);
    EXPECT_EQ(resp.error, WireError::kTimeout);
    EXPECT_FALSE(client.ReceiveFrame(&payload));
  }
  {
    // A valid request interleaved with a garbage frame: the valid one is
    // answered, the garbage one gets a typed error (valid length prefix,
    // unparseable JSON payload keeps the connection recoverable).
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    std::string junk(32, '\0');
    for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
    Request req;
    req.verb = Verb::kListDbs;
    ASSERT_TRUE(client.SendRaw(EncodeFrame(junk)));
    ASSERT_TRUE(client.Send(req));
    Response resp = client.Receive();
    ASSERT_EQ(resp.kind, Response::Kind::kError);
    EXPECT_EQ(resp.error, WireError::kInvalidArgument);
    resp = client.Receive();
    ASSERT_EQ(resp.kind, Response::Kind::kDbList);
  }
  {
    // Seeded random byte soup, several rounds: any mix of typed errors and
    // drops is acceptable; a hang or crash is not.
    for (int round = 0; round < 4; ++round) {
      TestClient client(server->port());
      ASSERT_TRUE(client.connected());
      std::string soup(64 + rng.Uniform(192), '\0');
      for (char& c : soup) c = static_cast<char>(rng.Uniform(256));
      client.SendRaw(soup);
      std::string payload;
      while (client.ReceiveFrame(&payload)) {
        EXPECT_EQ(ParseResponse(payload).ValueOrDie().kind,
                  Response::Kind::kError);
      }
    }
  }

  // Thread-reclamation baseline: every adversarial connection above ends
  // reaped, and the server still serves.
  ExpectConnectionsDrain(*server);
  TestClient healthy(server->port());
  ASSERT_TRUE(healthy.connected());
  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(healthy.Send(ping));
  EXPECT_EQ(healthy.Receive().kind, Response::Kind::kPong);
}

// ---- attach / resumable streams --------------------------------------------

TEST_F(WireChaosTest, AttachReplaysFinishedJobByteIdentical) {
  Server* server = StartServer(ServerConfig{});
  TestClient submitter(server->port());
  ASSERT_TRUE(submitter.connected());
  ASSERT_TRUE(submitter.Send(Submit("L01", /*limit=*/2)));
  const ObservedStream original = DrainStream(&submitter, 0);
  ASSERT_TRUE(original.done);
  ASSERT_FALSE(original.answer_payloads.empty());
  EXPECT_EQ(original.done_answers, original.answer_payloads.size());

  // Full replay from 0: byte-identical answer frames, same terminal.
  TestClient replayer(server->port());
  ASSERT_TRUE(replayer.connected());
  ASSERT_TRUE(replayer.Send(Attach(original.job_id, 0)));
  const ObservedStream replay = DrainStream(&replayer, 0);
  ASSERT_TRUE(replay.done);
  EXPECT_EQ(replay.job_id, original.job_id);
  EXPECT_EQ(replay.answer_payloads, original.answer_payloads);
  EXPECT_EQ(replay.done_answers, original.done_answers);
  EXPECT_EQ(replay.done_state, original.done_state);

  // Partial resume from cursor 1: exactly the tail, sequence picks up at 1.
  TestClient resumer(server->port());
  ASSERT_TRUE(resumer.connected());
  ASSERT_TRUE(resumer.Send(Attach(original.job_id, 1)));
  const ObservedStream tail = DrainStream(&resumer, 1);
  ASSERT_TRUE(tail.done);
  EXPECT_EQ(tail.answer_payloads.size(), original.answer_payloads.size() - 1);
  for (size_t i = 0; i < tail.answer_payloads.size(); ++i) {
    EXPECT_EQ(tail.answer_payloads[i], original.answer_payloads[i + 1]);
  }
  EXPECT_EQ(tail.done_answers, original.done_answers);

  // attach to a job that never existed: one clean typed NotFound.
  TestClient lost(server->port());
  ASSERT_TRUE(lost.connected());
  ASSERT_TRUE(lost.Send(Attach(424242, 0)));
  const Response resp = lost.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kNotFound);
}

TEST_F(WireChaosTest, ResetMidStreamThenAttachResumesGapFree) {
  // The chaos front end resets the connection at its 3rd frame write
  // (accepted, one answer, then RST); a clean front end over the same
  // manager serves the resume — jobs outlive servers, not just sockets.
  ServerConfig chaos_config;
  chaos_config.fault_spec = "wire-write=reset@3";
  Server* chaos = StartServer(chaos_config);
  Server* clean = StartServer(ServerConfig{});

  TestClient client(chaos->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Submit("L01", /*limit=*/2)));
  const ObservedStream broken = DrainStream(&client, 0);
  EXPECT_FALSE(broken.done);  // the stream was cut
  ASSERT_GT(broken.job_id, 0u);

  TestClient resumer(clean->port());
  ASSERT_TRUE(resumer.connected());
  const uint64_t cursor = broken.answer_payloads.size();
  ASSERT_TRUE(resumer.Send(Attach(broken.job_id, cursor)));
  const ObservedStream rest = DrainStream(&resumer, cursor);
  ASSERT_TRUE(rest.done);
  // Gap-free across the reconnect: the two fragments tile [0, total).
  EXPECT_EQ(broken.answer_payloads.size() + rest.answer_payloads.size(),
            rest.done_answers);
  ExpectConnectionsDrain(*chaos);
}

TEST_F(WireChaosTest, ShortWritesReassembleByteIdentical) {
  ServerConfig chaos_config;
  chaos_config.fault_spec = "wire-write=short-write";
  Server* chaos = StartServer(chaos_config);
  Server* clean = StartServer(ServerConfig{});

  TestClient trickled(chaos->port());
  ASSERT_TRUE(trickled.connected());
  ASSERT_TRUE(trickled.Send(Submit("L01", /*limit=*/2)));
  const ObservedStream chaos_stream = DrainStream(&trickled, 0);
  ASSERT_TRUE(chaos_stream.done);
  ASSERT_FALSE(chaos_stream.answer_payloads.empty());

  // The same stream through a clean server is byte-identical: 1-byte
  // writes change packetization, never content.
  TestClient replayer(clean->port());
  ASSERT_TRUE(replayer.connected());
  ASSERT_TRUE(replayer.Send(Attach(chaos_stream.job_id, 0)));
  const ObservedStream replay = DrainStream(&replayer, 0);
  ASSERT_TRUE(replay.done);
  EXPECT_EQ(replay.answer_payloads, chaos_stream.answer_payloads);
}

TEST_F(WireChaosTest, GarbageOnReadSurfacesTypedFramingError) {
  ServerConfig config;
  config.fault_spec = "wire-read=garbage@1";
  Server* server = StartServer(config);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  Request req;
  req.verb = Verb::kListDbs;
  ASSERT_TRUE(client.Send(req));
  // The injected garbage corrupts the inbound stream ahead of the valid
  // frame: a typed framing error, then drop — never a wedged parse.
  std::string payload;
  ASSERT_TRUE(client.ReceiveFrame(&payload));
  const Response resp = ParseResponse(payload).ValueOrDie();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kInvalidArgument);
  EXPECT_FALSE(client.ReceiveFrame(&payload));
  ExpectConnectionsDrain(*server);
}

TEST_F(WireChaosTest, StallFaultDelaysButStillServes) {
  ServerConfig config;
  config.fault_spec = "wire-read=stall,wire-accept=stall";
  Server* server = StartServer(config);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  Request req;
  req.verb = Verb::kListDbs;
  ASSERT_TRUE(client.Send(req));
  const Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kDbList);
}

// ---- Dropped clients -------------------------------------------------------

TEST_F(WireChaosTest, DropperMidStreamFreesThreadJobSurvives) {
  Server* server = StartServer(ServerConfig{});
  uint64_t job_id = 0;
  {
    TestClient dropper(server->port());
    ASSERT_TRUE(dropper.connected());
    ASSERT_TRUE(dropper.Send(Submit("L10", /*limit=*/50)));
    std::string payload;
    ASSERT_TRUE(dropper.ReceiveFrame(&payload));
    const Response accepted = ParseResponse(payload).ValueOrDie();
    ASSERT_EQ(accepted.kind, Response::Kind::kAccepted);
    job_id = accepted.job_id;
    // Vanish mid-stream (destructor closes the socket).
  }
  // The streaming thread must notice the EOF and self-reap long before the
  // job finishes — a dropper costs a connection slot, not a worker-lifetime
  // thread.
  ExpectConnectionsDrain(*server);
  const Result<WireJobStatus> status = manager_->GetStatus(job_id);
  ASSERT_TRUE(status.ok());  // the job itself survived the dropper
  ASSERT_TRUE(manager_->Cancel(job_id).ok());
}

// ---- Idempotent submits ----------------------------------------------------

TEST_F(WireChaosTest, IdempotentSubmitNeverDoubleAdmits) {
  Server* server = StartServer(ServerConfig{});

  Request keyed = Submit("L01", /*limit=*/2);
  keyed.idempotency_key = "retry-abc";
  TestClient first(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send(keyed));
  const ObservedStream original = DrainStream(&first, 0);
  ASSERT_TRUE(original.done);

  // Retrying the same (tenant, key) returns the same job and replays its
  // stream byte-identically — no second admission, no second job.
  TestClient retry(server->port());
  ASSERT_TRUE(retry.connected());
  ASSERT_TRUE(retry.Send(keyed));
  const ObservedStream replay = DrainStream(&retry, 0);
  ASSERT_TRUE(replay.done);
  EXPECT_EQ(replay.job_id, original.job_id);
  EXPECT_EQ(replay.answer_payloads, original.answer_payloads);

  // A different key is a different job.
  Request other = keyed;
  other.idempotency_key = "retry-def";
  TestClient fresh(server->port());
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.Send(other));
  const ObservedStream second = DrainStream(&fresh, 0);
  ASSERT_TRUE(second.done);
  EXPECT_NE(second.job_id, original.job_id);

  // Exactly two jobs exist in the manager, both done.
  const JobManager::JobStateCounts counts = manager_->CountJobsByState();
  EXPECT_EQ(counts.queued + counts.running + counts.done + counts.cancelled +
                counts.failed,
            2u);
}

TEST_F(WireChaosTest, ConcurrentSameKeySubmitsAdmitExactlyOneJob) {
  Server* server = StartServer(ServerConfig{});
  constexpr int kRacers = 4;
  std::atomic<uint64_t> job_ids[kRacers];
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kRacers; ++i) {
    job_ids[i].store(0, std::memory_order_relaxed);
    threads.emplace_back([this, server, &job_ids, &rejected, i] {
      Request keyed = Submit("L01");
      keyed.idempotency_key = "race-key";
      TestClient client(server->port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send(keyed));
      std::string payload;
      ASSERT_TRUE(client.ReceiveFrame(&payload));
      const Response resp = ParseResponse(payload).ValueOrDie();
      if (resp.kind == Response::Kind::kError) {
        // Lost the reservation race mid-flight: typed, retryable.
        EXPECT_EQ(resp.error, WireError::kSaturated);
        EXPECT_TRUE(IsRetryableWireError(resp.error));
        rejected.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ASSERT_EQ(resp.kind, Response::Kind::kAccepted);
      job_ids[i].store(resp.job_id, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  // However the race resolved, every accepted racer saw the same job and
  // the manager admitted exactly one.
  uint64_t the_job = 0;
  for (int i = 0; i < kRacers; ++i) {
    const uint64_t id = job_ids[i].load(std::memory_order_relaxed);
    if (id == 0) continue;
    if (the_job == 0) the_job = id;
    EXPECT_EQ(id, the_job);
  }
  EXPECT_GE(the_job, 1u);  // at least one racer got through
  const JobManager::JobStateCounts counts = manager_->CountJobsByState();
  EXPECT_EQ(counts.queued + counts.running + counts.done + counts.cancelled +
                counts.failed,
            1u);
}

}  // namespace
}  // namespace fastqre
