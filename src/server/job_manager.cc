#include "server/job_manager.h"

#include <algorithm>
#include <cstdlib>

#include "storage/csv.h"

namespace fastqre {
namespace {

bool IsTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kCancelled ||
         s == JobState::kFailed;
}

// Idempotency map key. Length-prefixing the tenant keeps distinct
// (tenant, key) pairs distinct even when either string contains the other's
// separator — both are caller-chosen bytes.
std::string IdempotencyMapKey(const std::string& tenant,
                              const std::string& key) {
  return std::to_string(tenant.size()) + ':' + tenant + key;
}

}  // namespace

JobManager::JobManager(JobManagerConfig config)
    : config_(std::move(config)), admission_(config_.admission) {
  std::string spec = config_.fault_spec;
  if (spec.empty()) {
    if (const char* env = std::getenv("FASTQRE_FAULTS")) spec = env;
  }
  if (!spec.empty()) {
    Result<std::unique_ptr<FaultInjector>> parsed = FaultInjector::Parse(spec);
    if (parsed.ok()) {
      faults_ = std::move(*parsed);
    } else {
      // Constructors cannot return Status; every Submit() reports this.
      fault_spec_error_ = parsed.status();
    }
  }
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads);
}

JobManager::~JobManager() {
  Shutdown();
  pool_.reset();
}

Status JobManager::AttachDatabase(const std::string& name,
                                  const Database* db) {
  if (name.empty()) return Status::InvalidArgument("empty database name");
  MutexLock lock(&mu_);
  if (!dbs_.emplace(name, db).second) {
    return Status::InvalidArgument("database \"" + name +
                                   "\" is already attached");
  }
  return Status::OK();
}

JobManager::SubmitOutcome JobManager::Submit(const Request& req) {
  SubmitOutcome out;
  if (!fault_spec_error_.ok()) {
    out.error = WireError::kInvalidArgument;
    out.message = "bad fault spec: " + fault_spec_error_.message();
    return out;
  }

  const bool keyed = !req.idempotency_key.empty();
  const std::string idem_key =
      keyed ? IdempotencyMapKey(req.tenant, req.idempotency_key)
            : std::string();

  const Database* db = nullptr;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      out.error = WireError::kShuttingDown;
      out.message = "server is shutting down";
      return out;
    }
    auto it = dbs_.find(req.db);
    if (it == dbs_.end()) {
      out.error = WireError::kNotFound;
      out.message = "no database named \"" + req.db + "\"";
      return out;
    }
    db = it->second;
    if (keyed) {
      // Reserve the key (value 0) before the slow work below, so two racing
      // retries with the same key cannot both reach admission. The reserver
      // either publishes its job id or erases the reservation on rejection.
      auto [slot, inserted] = idempotency_.emplace(idem_key, 0);
      if (!inserted) {
        if (slot->second != 0) {
          out.job_id = slot->second;
          out.existing = true;
          return out;
        }
        out.error = WireError::kSaturated;
        out.message = "a submit with this idempotency key is in flight";
        return out;
      }
    }
  }
  // From here every rejection path must drop the reservation, or retries of
  // a rejected submit would wedge on the in-flight placeholder forever.
  auto drop_reservation = [&] {
    if (!keyed) return;
    MutexLock lock(&mu_);
    idempotency_.erase(idem_key);
  };

  // Parse R_out synchronously (outside the manager lock: CSV size is client
  // controlled) so malformed input is a typed submit-time rejection, not a
  // failed job.
  Result<Table> rout =
      LoadCsvString(req.rout_csv, "rout", db->dictionary());
  if (!rout.ok()) {
    drop_reservation();
    out.error = WireError::kInvalidArgument;
    out.message = "rout_csv: " + rout.status().message();
    return out;
  }

  // The "job-admit" fault site: alloc-fail simulates an admission rejection
  // so clients' retry paths are testable; cancel races a cancellation
  // against the enqueue below; delay (handled inside Hit) widens both
  // windows for the sanitizer jobs.
  bool inject_cancel = false;
  if (faults_ != nullptr) {
    const FaultActions actions = faults_->Hit("job-admit");
    if (actions.alloc_fail) {
      drop_reservation();
      out.error = WireError::kSaturated;
      out.message = "injected admission fault (job-admit=alloc-fail)";
      return out;
    }
    inject_cancel = actions.cancel;
  }

  const AdmissionController::Admission admit = admission_.Admit(
      req.tenant, req.options.memory_budget_bytes, clock_.ElapsedSeconds());
  if (admit.error != WireError::kNone) {
    drop_reservation();
    out.error = admit.error;
    out.message = admit.message;
    return out;
  }

  auto job = std::make_shared<Job>();
  job->tenant = req.tenant;
  job->db_name = req.db;
  job->db = db;
  job->options = req.options;
  job->slice_bytes = admit.slice_bytes;
  if (inject_cancel) {
    MutexLock lock(&job->mu);
    job->cancel_requested = true;
  }

  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      // Lost the race against Shutdown(): undo the admission and reject —
      // nobody would cancel a job inserted after Shutdown's snapshot.
      admission_.Release(job->slice_bytes);
      if (keyed) idempotency_.erase(idem_key);
      out.error = WireError::kShuttingDown;
      out.message = "server is shutting down";
      return out;
    }
    job->id = next_job_id_++;
    jobs_.emplace(job->id, job);
    // Publish the id in the same critical section that makes the job
    // findable: a racing keyed retry sees either "in flight" or this job,
    // never a gap.
    if (keyed) idempotency_[idem_key] = job->id;
  }

  // The pool task owns R_out, so it is freed when the job ends.
  auto table = std::make_shared<const Table>(std::move(*rout));
  pool_->Submit([this, job, table] { RunJob(job, *table); });
  out.job_id = job->id;
  return out;
}

std::shared_ptr<JobManager::Job> JobManager::FindJob(uint64_t job_id) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second;
}

WireJobStatus JobManager::SnapshotLocked(const Job& job) const {
  WireJobStatus s;
  s.job_id = job.id;
  s.state = job.state;
  s.tenant = job.tenant;
  s.db = job.db_name;
  s.answers_streamed = job.answers.size();
  s.found_any = job.found_any;
  s.failure_reason = job.failure_reason;
  s.slice_bytes = job.slice_bytes;
  s.peak_tracked_bytes = job.peak_tracked_bytes;
  s.run_seconds = job.run_seconds;
  return s;
}

Result<WireJobStatus> JobManager::GetStatus(uint64_t job_id) const {
  std::shared_ptr<Job> job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  MutexLock lock(&job->mu);
  return SnapshotLocked(*job);
}

Result<WireJobStatus> JobManager::Cancel(uint64_t job_id) {
  std::shared_ptr<Job> job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  MutexLock lock(&job->mu);
  job->cancel_requested = true;
  if (job->engine != nullptr) job->engine->Cancel();
  // The snapshot is honest about timing: a running job is still kRunning
  // here and flips to kCancelled when the engine observes the token.
  return SnapshotLocked(*job);
}

std::vector<WireDbInfo> JobManager::ListDbs() const {
  std::vector<WireDbInfo> out;
  MutexLock lock(&mu_);
  for (const auto& [name, db] : dbs_) {  // std::map: deterministic order
    WireDbInfo info;
    info.name = name;
    info.tables = db->num_tables();
    for (size_t t = 0; t < db->num_tables(); ++t) {
      info.rows += db->table(static_cast<TableId>(t)).num_rows();
    }
    out.push_back(std::move(info));
  }
  return out;
}

JobManager::JobStateCounts JobManager::CountJobsByState() const {
  // Snapshot the table first, then read states lock-by-lock: mu_ is never
  // held across a job->mu acquisition (same discipline as Shutdown), and a
  // job transitioning mid-scan is counted in whichever state it held when
  // its turn came — a health probe wants a coarse load sketch, not a
  // linearizable census.
  std::vector<std::shared_ptr<Job>> snapshot;
  {
    MutexLock lock(&mu_);
    snapshot.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) snapshot.push_back(job);
  }
  JobStateCounts counts;
  for (const std::shared_ptr<Job>& job : snapshot) {
    MutexLock lock(&job->mu);
    switch (job->state) {
      case JobState::kQueued:
        ++counts.queued;
        break;
      case JobState::kRunning:
        ++counts.running;
        break;
      case JobState::kDone:
        ++counts.done;
        break;
      case JobState::kCancelled:
        ++counts.cancelled;
        break;
      case JobState::kFailed:
        ++counts.failed;
        break;
    }
  }
  return counts;
}

Result<JobManager::StreamProgress> JobManager::WaitAnswers(
    uint64_t job_id, size_t cursor, double timeout_seconds) const {
  std::shared_ptr<Job> job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  Timer waited;
  MutexLock lock(&job->mu);
  while (job->answers.size() <= cursor && !IsTerminal(job->state)) {
    const double remaining = timeout_seconds - waited.ElapsedSeconds();
    if (remaining <= 0) break;
    job->cv.WaitFor(job->mu, remaining);
  }
  StreamProgress progress;
  for (size_t i = cursor; i < job->answers.size(); ++i) {
    progress.answers.push_back(job->answers[i]);
  }
  progress.state = job->state;
  progress.failure_reason = job->failure_reason;
  // Once terminal, the stream is final (the terminal transition happens
  // after the engine returns, i.e. after the last callback), so handing
  // out the remaining answers completes the stream.
  progress.complete = IsTerminal(job->state);
  return progress;
}

void JobManager::RunJob(const std::shared_ptr<Job>& job, const Table& rout) {
  Timer run_timer;
  {
    MutexLock lock(&job->mu);
    if (job->cancel_requested) {
      job->failure_reason = "cancelled";
      job->run_seconds = run_timer.ElapsedSeconds();
      // Release before the terminal state is observable: a waiter that
      // sees kCancelled may immediately assert the pool drained.
      admission_.Release(job->slice_bytes);
      job->state = JobState::kCancelled;
      job->cv.NotifyAll();
      return;
    }
    job->state = JobState::kRunning;
    job->cv.NotifyAll();
  }

  QreOptions opts;
  opts.variant = job->options.superset ? QreVariant::kSuperset
                                       : QreVariant::kExact;
  opts.alpha = job->options.alpha;
  opts.validation_threads =
      std::max(1, std::min(job->options.validation_threads,
                           config_.max_validation_threads));
  opts.time_budget_seconds = job->options.time_budget_seconds > 0
                                 ? job->options.time_budget_seconds
                                 : config_.default_time_budget_seconds;
  if (config_.max_time_budget_seconds > 0) {
    opts.time_budget_seconds =
        opts.time_budget_seconds > 0
            ? std::min(opts.time_budget_seconds,
                       config_.max_time_budget_seconds)
            : config_.max_time_budget_seconds;
  }
  // The admitted slice IS the job's governor budget: the engine degrades
  // and ultimately stops against it, so a greedy job exhausts itself, not
  // the pool.
  opts.memory_budget_bytes = job->slice_bytes;

  auto engine = std::make_shared<const FastQre>(job->db, opts);
  {
    MutexLock lock(&job->mu);
    job->engine = engine;
    // A cancel that arrived between the kRunning transition and here found
    // engine == nullptr; honor it now that the engine exists.
    if (job->cancel_requested) engine->Cancel();
  }

  Job* raw = job.get();
  Result<std::vector<QreAnswer>> result = engine->ReverseAll(
      rout, job->options.limit, [raw](const QreAnswer& answer) {
        MutexLock lock(&raw->mu);
        const int index = static_cast<int>(raw->answers.size());
        raw->answers.push_back(ToWireAnswer(answer, index));
        if (answer.found) raw->found_any = true;
        raw->cv.NotifyAll();
      });

  {
    MutexLock lock(&job->mu);
    job->engine.reset();
    job->run_seconds = run_timer.ElapsedSeconds();
    JobState terminal;
    if (!result.ok()) {
      terminal = JobState::kFailed;
      job->failure_reason = result.status().message();
    } else {
      const std::vector<QreAnswer>& answers = *result;
      if (!answers.empty()) {
        job->peak_tracked_bytes =
            answers.back().stats.peak_tracked_bytes.value();
        if (!answers.back().found) {
          job->failure_reason = answers.back().failure_reason;
        }
      }
      terminal = job->failure_reason == "cancelled" ? JobState::kCancelled
                                                    : JobState::kDone;
    }
    // Release before the terminal state is observable (see the queued-
    // cancel path above). Lock order job->mu -> admission mutex appears
    // nowhere reversed.
    admission_.Release(job->slice_bytes);
    job->state = terminal;
    job->cv.NotifyAll();
  }
}

void JobManager::Shutdown() {
  std::vector<std::shared_ptr<Job>> live;
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    for (const auto& [id, job] : jobs_) live.push_back(job);
  }
  for (const std::shared_ptr<Job>& job : live) {
    MutexLock lock(&job->mu);
    job->cancel_requested = true;
    if (job->engine != nullptr) job->engine->Cancel();
  }
  for (const std::shared_ptr<Job>& job : live) {
    MutexLock lock(&job->mu);
    while (!IsTerminal(job->state)) job->cv.Wait(job->mu);
  }
}

}  // namespace fastqre
