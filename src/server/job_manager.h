// Async job management for the QRE service (DESIGN.md §15.2).
//
// A JobManager owns a set of named, pre-attached databases and a worker
// pool. Submit() validates the request, runs it through the
// AdmissionController (rate / load / memory gates, typed rejections),
// assigns a job id and enqueues the search; the worker thread builds a
// job-private FastQre whose governor budget IS the admitted slice, so a
// job can exhaust its own slice but never the pool's.
//
// Job lifecycle (DESIGN.md §15.2 state machine):
//
//     kQueued --start--> kRunning --search ends--> kDone
//         \                  \--cancel observed--> kCancelled
//          \--cancel before start-------------->   kCancelled
//           (engine rejects input / internal) -->  kFailed
//
// Terminal states are sticky; the admission slice is released exactly once,
// in the terminal transition. Answers stream into the job's AnswerBuffer
// from the engine's AnswerCallback — rank order, byte-identical to a batch
// run — and readers pull them with WaitAnswers() (cursor + timed wait), so
// no socket write ever happens under a job lock.
//
// Everything here is transport-agnostic: server.{h,cc} adapts it to TCP,
// the tests and bench_e16_service drive it in-process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "qre/fastqre.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "storage/database.h"

namespace fastqre {

struct JobManagerConfig {
  /// Worker threads executing jobs (each job occupies one worker for its
  /// whole run; intra-job parallelism is the engine's own affair).
  int worker_threads = 2;

  AdmissionConfig admission;

  /// Server-side clamp on a job's requested validation_threads.
  int max_validation_threads = 8;
  /// Time budget applied when the client asks for none; 0 = unlimited.
  double default_time_budget_seconds = 0.0;
  /// Hard cap on any job's time budget; 0 = no cap.
  double max_time_budget_seconds = 0.0;

  /// Fault spec for the manager's own sites (grammar in
  /// common/fault_injection.h; empty falls back to FASTQRE_FAULTS). Site
  /// "job-admit" fires per submit after request validation: alloc-fail
  /// simulates an admission rejection (typed kSaturated), cancel cancels
  /// the job the moment it is admitted, delay widens the submit/cancel
  /// race window.
  std::string fault_spec;
};

/// \brief The streamed answers of one job, in rank order. Named so the
/// governed-alloc analyzer classifies it: growth is bounded by the job's
/// ReverseAll limit (+1 tail entry), set at admission time.
using AnswerBuffer = std::vector<WireAnswer>;

class JobManager {
 public:
  explicit JobManager(JobManagerConfig config);

  /// Cancels every live job, waits for terminal states, joins the pool.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Registers a database under `name`. Must happen before any Submit that
  /// names it; `db` must outlive the manager. Fails on duplicate name.
  Status AttachDatabase(const std::string& name, const Database* db);

  /// Outcome of a submit: error == kNone means `job_id` is live.
  struct SubmitOutcome {
    WireError error = WireError::kNone;
    std::string message;
    uint64_t job_id = 0;
    /// True when an idempotency key matched an already-admitted job:
    /// `job_id` names that job, nothing new was admitted or enqueued.
    bool existing = false;
  };

  /// Validates, admits and enqueues one job. Thread-safe; never blocks on
  /// job execution (admission rejections return immediately with their
  /// typed error). A request carrying an idempotency key dedupes against
  /// earlier keyed submits from the same tenant (DESIGN.md §15.5): a key
  /// that already produced a job returns it with `existing` set; a key
  /// whose original submit is still mid-admission gets a retryable
  /// kSaturated so the retry backs off instead of double-admitting.
  SubmitOutcome Submit(const Request& req);

  /// Snapshot of a job's externally visible state.
  Result<WireJobStatus> GetStatus(uint64_t job_id) const;

  /// Requests cooperative cancellation: a queued job dies before starting,
  /// a running job stops at its next interrupt poll and keeps its proved
  /// prefix (failure_reason "cancelled"). Idempotent; returns the status
  /// snapshot taken just after the request was recorded.
  Result<WireJobStatus> Cancel(uint64_t job_id);

  std::vector<WireDbInfo> ListDbs() const;

  /// Jobs bucketed by lifecycle state (the `ping` load snapshot).
  struct JobStateCounts {
    uint64_t queued = 0;
    uint64_t running = 0;
    uint64_t done = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
  };

  /// Counts every known job by its current state. O(jobs); cheap at the
  /// health-probe cadence this exists for.
  JobStateCounts CountJobsByState() const;

  /// One pull of a job's answer stream.
  struct StreamProgress {
    /// Answers with index >= the requested cursor, in rank order.
    // gov: bounded — a slice of one job's AnswerBuffer, itself capped at
    // options.limit + 1 entries.
    AnswerBuffer answers;
    JobState state = JobState::kQueued;
    /// True once `state` is terminal AND `answers` reaches the end of the
    /// stream — the caller has seen everything and can stop polling.
    bool complete = false;
    std::string failure_reason;
  };

  /// Blocks until the job has answers beyond `cursor`, reaches a terminal
  /// state, or `timeout_seconds` elapses (a plain timeout returns OK with
  /// empty answers and complete == false). NotFound for unknown ids.
  Result<StreamProgress> WaitAnswers(uint64_t job_id, size_t cursor,
                                     double timeout_seconds) const;

  /// Rejects new submits with kShuttingDown, cancels live jobs and waits
  /// for them to reach terminal states. Idempotent; the destructor calls it.
  void Shutdown();

  const AdmissionController& admission() const { return admission_; }

 private:
  struct Job {
    uint64_t id = 0;
    std::string tenant;
    std::string db_name;
    const Database* db = nullptr;
    WireOptions options;
    uint64_t slice_bytes = 0;

    mutable Mutex mu;
    mutable CondVar cv;
    JobState state GUARDED_BY(mu) = JobState::kQueued;
    // gov: bounded — at most options.limit + 1 entries (ReverseAll's
    // answer limit plus the single unfound tail), fixed at admission.
    AnswerBuffer answers GUARDED_BY(mu);
    bool found_any GUARDED_BY(mu) = false;
    std::string failure_reason GUARDED_BY(mu);
    uint64_t peak_tracked_bytes GUARDED_BY(mu) = 0;
    double run_seconds GUARDED_BY(mu) = 0;
    bool cancel_requested GUARDED_BY(mu) = false;
    /// Live only while kRunning; FastQre::Cancel() is const + thread-safe,
    /// so Cancel() pokes it without stopping the worker.
    std::shared_ptr<const FastQre> engine GUARDED_BY(mu);
  };

  /// Job-id -> record. Named so the governed-alloc analyzer classifies it:
  /// growth is bounded by the admission controller's in-flight cap per unit
  /// time, and each record is O(limit) WireAnswers.
  using JobTable = std::map<uint64_t, std::shared_ptr<Job>>;

  std::shared_ptr<Job> FindJob(uint64_t job_id) const;
  WireJobStatus SnapshotLocked(const Job& job) const REQUIRES(job.mu);
  /// The worker-thread body: runs the engine on `rout`, streams answers,
  /// performs the terminal transition and releases the admission slice.
  /// `rout` is owned by the pool task, not the job record, so a finished
  /// job does not keep its R_out for the manager's lifetime.
  void RunJob(const std::shared_ptr<Job>& job, const Table& rout);

  const JobManagerConfig config_;
  AdmissionController admission_;
  std::unique_ptr<FaultInjector> faults_;  // null: no rules
  Status fault_spec_error_;
  Timer clock_;  // monotonic epoch for token buckets + run_seconds

  mutable Mutex mu_;
  std::map<std::string, const Database*> dbs_ GUARDED_BY(mu_);
  // gov: bounded — one entry per admitted job; in-flight is capped by
  // admission and terminal records are O(limit) answers each.
  JobTable jobs_ GUARDED_BY(mu_);
  /// (tenant, idempotency key) -> job id, 0 while the original submit is
  /// still between key reservation and job insertion. Entries are kept for
  /// the life of the manager, mirroring jobs_ retention, so a late retry
  /// still finds its job.
  // gov: bounded — at most one entry per keyed admitted job (see jobs_).
  std::map<std::string, uint64_t> idempotency_ GUARDED_BY(mu_);
  uint64_t next_job_id_ GUARDED_BY(mu_) = 1;
  bool shutting_down_ GUARDED_BY(mu_) = false;

  // Last: workers touch everything above, so the pool must die first.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fastqre
