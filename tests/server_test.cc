// Socket-level tests for the TCP front end (DESIGN.md §15.4): frame
// round trips over a real connection, verb dispatch, typed protocol errors,
// concurrent connections, and clean Stop() with streams in flight.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "server/server.h"
#include "storage/csv.h"
#include "test_client.h"

namespace fastqre {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
    JobManagerConfig config;
    config.worker_threads = 2;
    config.admission.max_in_flight_jobs = 16;
    manager_ = std::make_unique<JobManager>(config);
    ASSERT_TRUE(manager_->AttachDatabase("tpch", &db_).ok());
    server_ = std::make_unique<Server>(manager_.get(), ServerConfig{});
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    manager_->Shutdown();
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

  Database db_;
  std::vector<WorkloadQuery> workload_;
  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ListDbs) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  Request req;
  req.verb = Verb::kListDbs;
  ASSERT_TRUE(client.Send(req));
  const Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kDbList);
  ASSERT_EQ(resp.dbs.size(), 1u);
  EXPECT_EQ(resp.dbs[0].name, "tpch");
  EXPECT_EQ(resp.dbs[0].tables, db_.num_tables());
}

TEST_F(ServerTest, SubmitStreamsAnswersThenDone) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Submit("L01", /*limit=*/2)));

  Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kAccepted);
  const uint64_t job_id = resp.job_id;
  ASSERT_GT(job_id, 0u);

  std::vector<WireAnswer> answers;
  for (;;) {
    resp = client.Receive();
    if (resp.kind == Response::Kind::kDone) break;
    ASSERT_EQ(resp.kind, Response::Kind::kAnswer);
    EXPECT_EQ(resp.job_id, job_id);
    answers.push_back(resp.answer);
  }
  EXPECT_EQ(resp.state, JobState::kDone);
  EXPECT_EQ(resp.answers, answers.size());
  ASSERT_FALSE(answers.empty());
  EXPECT_TRUE(answers[0].found);
  EXPECT_FALSE(answers[0].sql.empty());
  // Stream indices are the rank order, gapless from 0.
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].index, static_cast<int>(i));
  }
}

TEST_F(ServerTest, StatusAndCancelVerbs) {
  TestClient submitter(server_->port());
  ASSERT_TRUE(submitter.connected());
  ASSERT_TRUE(submitter.Send(Submit("L10", /*limit=*/50)));
  const Response accepted = submitter.Receive();
  ASSERT_EQ(accepted.kind, Response::Kind::kAccepted);

  // Cancel from a second connection while the first streams.
  TestClient controller(server_->port());
  ASSERT_TRUE(controller.connected());
  Request cancel;
  cancel.verb = Verb::kCancel;
  cancel.job_id = accepted.job_id;
  ASSERT_TRUE(controller.Send(cancel));
  const Response cancel_resp = controller.Receive();
  ASSERT_EQ(cancel_resp.kind, Response::Kind::kStatus);
  EXPECT_EQ(cancel_resp.status.job_id, accepted.job_id);

  // The submitter's stream must still terminate with done.
  Response resp;
  do {
    resp = submitter.Receive();
  } while (resp.kind == Response::Kind::kAnswer);
  ASSERT_EQ(resp.kind, Response::Kind::kDone);
  EXPECT_TRUE(resp.state == JobState::kCancelled ||
              resp.state == JobState::kDone);

  Request status;
  status.verb = Verb::kStatus;
  status.job_id = accepted.job_id;
  ASSERT_TRUE(controller.Send(status));
  const Response status_resp = controller.Receive();
  ASSERT_EQ(status_resp.kind, Response::Kind::kStatus);
  EXPECT_TRUE(status_resp.status.state == JobState::kCancelled ||
              status_resp.status.state == JobState::kDone);
}

TEST_F(ServerTest, TypedProtocolErrors) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Wrong version.
  ASSERT_TRUE(client.SendRaw(EncodeFrame("{\"v\":9,\"verb\":\"list-dbs\"}")));
  Response resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kVersionMismatch);

  // Malformed JSON — connection survives a recoverable request error.
  ASSERT_TRUE(client.SendRaw(EncodeFrame("{nope")));
  resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kInvalidArgument);

  // Unknown job.
  Request status;
  status.verb = Verb::kStatus;
  status.job_id = 424242;
  ASSERT_TRUE(client.Send(status));
  resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kNotFound);

  // Unknown database on submit.
  Request bad = Submit("L01");
  bad.db = "absent";
  ASSERT_TRUE(client.Send(bad));
  resp = client.Receive();
  ASSERT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, WireError::kNotFound);
}

TEST_F(ServerTest, OversizedFrameClosesConnection) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const char evil[4] = {'\x7f', '\xff', '\xff', '\xff'};  // 2GB length
  ASSERT_TRUE(client.SendRaw(std::string(evil, 4)));
  std::string payload;
  // One error frame, then EOF.
  ASSERT_TRUE(client.ReceiveFrame(&payload));
  const Response resp = ParseResponse(payload).ValueOrDie();
  EXPECT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_FALSE(client.ReceiveFrame(&payload));
  EXPECT_FALSE(client.framing_error());
}

TEST_F(ServerTest, ConcurrentConnectionsRunConcurrentJobs) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> found{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &found] {
      TestClient client(server_->port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send(Submit("L02")));
      Response resp = client.Receive();
      ASSERT_EQ(resp.kind, Response::Kind::kAccepted);
      bool any = false;
      do {
        resp = client.Receive();
        if (resp.kind == Response::Kind::kAnswer && resp.answer.found) {
          any = true;
        }
      } while (resp.kind == Response::Kind::kAnswer);
      EXPECT_EQ(resp.kind, Response::Kind::kDone);
      if (any) found.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(found.load(std::memory_order_relaxed), kClients);
}

TEST_F(ServerTest, StopWithStreamInFlight) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(Submit("L10", /*limit=*/50)));
  const Response accepted = client.Receive();
  ASSERT_EQ(accepted.kind, Response::Kind::kAccepted);
  // Stop with the stream open: Stop() must return (no hang), and the job
  // keeps running in the manager — TearDown's Shutdown() drains it.
  server_->Stop();
}

}  // namespace
}  // namespace fastqre
