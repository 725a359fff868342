// The service side of the benchmark: an in-process JobManager behind a
// loopback TCP Server (the daemon's pattern), driven by closed-loop wire
// connections that audit every answer stream against a batch reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/qre/deck.h"
#include "bench/qre/trace.h"
#include "common/status.h"
#include "server/job_manager.h"
#include "server/server.h"
#include "storage/database.h"

namespace fastqre::benchqre {

/// One entry of an answer stream as ReverseAll returns it.
struct ReferenceAnswer {
  bool found = false;
  std::string sql;
  std::string failure_reason;
};
using ReferenceStream = std::vector<ReferenceAnswer>;

/// Client-side timings of one job, in milliseconds.
struct JobRecord {
  double total_ms = 0;         // submit sent -> done received
  double admit_ms = 0;         // submit sent -> accepted received
  double first_answer_ms = 0;  // accepted -> first answer frame
  double drain_ms = 0;         // first answer frame -> done
  double run_ms = 0;           // engine run time (status.run_seconds)
  double end_s = 0;            // done received, seconds into the run
  int frames = 0;              // response frames of the job's stream
};

struct ServiceResult {
  std::vector<JobRecord> jobs;  // successful jobs only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<std::string> problems;  // the first few failures
};

class Service {
 public:
  /// Worker threads of the JobManager; admission never refuses (no rate
  /// limit, in-flight cap 64, unlimited pool, kServiceSliceBytes slices).
  static constexpr int kWorkers = 4;

  explicit Service(const Database* db);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Attaches the database as "tpch" and starts listening on an
  /// ephemeral loopback port.
  Status Start();

  /// Runs closed-loop jobs over `connections` connections until `max_jobs`
  /// jobs have been sent or `seconds` have passed, whichever comes first
  /// (each connection finishes the job it is in). Connections take deck
  /// entries in order from a shared cursor, cycling. Every stream is
  /// compared with `refs[deck index]`. With `recorder`, each job also
  /// records client-side spans and asks `status` for its run time.
  ServiceResult Run(const std::vector<DeckEntry>& deck,
                    const std::vector<const ReferenceStream*>& refs,
                    int connections, uint64_t max_jobs, double seconds,
                    SpanRecorder* recorder);

 private:
  const Database* db_;
  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<Server> server_;
};

}  // namespace fastqre::benchqre
