#include "bench/qre/service.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/qre/wire_client.h"

namespace fastqre::benchqre {
namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct ClientTally {
  std::vector<JobRecord> jobs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(std::string why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(std::move(why));
  }
};

// Runs one job on `client` and audits its stream. Returns false when the
// connection broke (the caller reconnects); a wrong or refused job is
// tallied as failed and still returns true.
bool RunJob(WireClient* client, const DeckEntry& entry,
            const ReferenceStream& ref, const std::string& tenant,
            Clock::time_point run_start, SpanRecorder* recorder,
            ClientTally* tally) {
  ++tally->attempted;
  Request req;
  req.verb = Verb::kSubmit;
  req.db = "tpch";
  req.tenant = tenant;
  req.rout_csv = entry.rout_csv;
  req.options.superset = entry.variant == QreVariant::kSuperset;
  req.options.limit = entry.limit;

  const Clock::time_point submitted = Clock::now();
  Response resp;
  if (!client->Send(req) || !client->Read(&resp)) {
    tally->Fail(entry.label + ": connection lost before accepted");
    return false;
  }
  if (resp.kind != Response::Kind::kAccepted) {
    tally->Fail(entry.label + ": submit refused: " +
                WireErrorToString(resp.error) + " " + resp.message);
    return true;
  }
  const uint64_t job = resp.job_id;
  const Clock::time_point accepted = Clock::now();
  Clock::time_point first_answer = accepted;
  std::vector<WireAnswer> stream;
  JobRecord rec;
  rec.frames = 1;
  for (;;) {
    if (!client->Read(&resp)) {
      tally->Fail(entry.label + ": connection lost mid-stream");
      return false;
    }
    ++rec.frames;
    if (resp.kind == Response::Kind::kAnswer && resp.seq == stream.size()) {
      if (stream.empty()) first_answer = Clock::now();
      stream.push_back(resp.answer);
      continue;
    }
    break;
  }
  const Clock::time_point done = Clock::now();
  if (resp.kind != Response::Kind::kDone || resp.state != JobState::kDone ||
      resp.answers != stream.size()) {
    tally->Fail(entry.label + ": stream did not end in done (" +
                JobStateToString(resp.state) + " " + resp.failure_reason +
                ")");
    return true;
  }
  bool same = stream.size() == ref.size();
  for (size_t k = 0; same && k < ref.size(); ++k) {
    same = stream[k].found == ref[k].found && stream[k].sql == ref[k].sql &&
           stream[k].failure_reason == ref[k].failure_reason;
  }
  if (!same) {
    tally->Fail(entry.label + ": stream differs from the batch reference");
    return true;
  }

  rec.total_ms = MillisBetween(submitted, done);
  rec.admit_ms = MillisBetween(submitted, accepted);
  rec.first_answer_ms = MillisBetween(accepted, first_answer);
  rec.drain_ms = MillisBetween(first_answer, done);
  rec.end_s = MillisBetween(run_start, done) / 1e3;
  if (recorder != nullptr) {
    Request status;
    status.verb = Verb::kStatus;
    status.job_id = job;
    if (!client->Send(status) || !client->Read(&resp)) {
      tally->Fail(entry.label + ": connection lost on status");
      return false;
    }
    if (resp.kind != Response::Kind::kStatus) {
      tally->Fail(entry.label + ": status refused");
      return true;
    }
    rec.run_ms = resp.status.run_seconds * 1e3;
    const uint64_t request = recorder->NewRequest();
    auto add = [&](const char* name, Clock::time_point a, Clock::time_point b,
                   std::string args) {
      recorder->Add(Span{name, "server", request, recorder->ToNs(a),
                         recorder->ToNs(b) - recorder->ToNs(a),
                         std::move(args)});
    };
    add("job", submitted, done,
        "\"query\":\"" + entry.label + "\",\"limit\":" +
            std::to_string(entry.limit) +
            ",\"run_ms\":" + std::to_string(rec.run_ms));
    add("admit", submitted, accepted, "");
    add("first_answer", accepted, first_answer, "");
    add("drain", first_answer, done, "");
  }
  tally->jobs.push_back(rec);
  return true;
}

}  // namespace

Service::Service(const Database* db) : db_(db) {
  JobManagerConfig config;
  config.worker_threads = kWorkers;
  config.admission.global_budget_bytes = 0;
  config.admission.default_slice_bytes = kServiceSliceBytes;
  config.admission.max_slice_bytes = kServiceSliceBytes;
  config.admission.tenant_rate_per_second = 0;
  config.admission.max_in_flight_jobs = 64;
  manager_ = std::make_unique<JobManager>(config);
}

Service::~Service() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  manager_.reset();
}

Status Service::Start() {
  FASTQRE_RETURN_NOT_OK(manager_->AttachDatabase("tpch", db_));
  server_ = std::make_unique<Server>(manager_.get(), ServerConfig{});
  return server_->Start();
}

ServiceResult Service::Run(const std::vector<DeckEntry>& deck,
                           const std::vector<const ReferenceStream*>& refs,
                           int connections, uint64_t max_jobs, double seconds,
                           SpanRecorder* recorder) {
  const uint16_t port = server_->port();
  std::atomic<uint64_t> cursor{0};
  std::vector<ClientTally> tallies(static_cast<size_t>(connections));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      const std::string tenant = "bench-" + std::to_string(c);
      WireClient client;
      while (Clock::now() < deadline) {
        const uint64_t n = cursor.fetch_add(1, std::memory_order_relaxed);
        if (n >= max_jobs) break;
        if (!client.connected() && !client.Connect(port)) {
          tally.Fail("cannot connect to the server");
          return;
        }
        const size_t i = static_cast<size_t>(n % deck.size());
        if (!RunJob(&client, deck[i], *refs[i], tenant, start, recorder,
                    &tally)) {
          client.Close();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ServiceResult result;
  result.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (ClientTally& t : tallies) {
    result.jobs.insert(result.jobs.end(), t.jobs.begin(), t.jobs.end());
    result.attempted += t.attempted;
    result.failed += t.failed;
    for (std::string& p : t.problems) result.problems.push_back(std::move(p));
  }
  return result;
}

}  // namespace fastqre::benchqre
