// Outside-in per-layer trace of FastQre::ReverseAll (README.md, "Tracing").
//
// ReplayReverseAll re-runs the serial path of ReverseAll through the
// pipeline's public calls — TableToTupleSet, ComputeColumnCover,
// DiscoverCgms, MappingEnumerator::Next, DiscoverWalks,
// RankedComposer::Next, Validator::Validate — building its own
// ResourceGovernor, WalkCache, SubplanCache and ExecPolicy the way the
// engine does, and records one span per call. Because the replay must
// reproduce the engine's answers and search counters exactly
// (SameSearch), the spans describe the very work ReverseAll does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/qre/trace.h"
#include "common/result.h"
#include "qre/fastqre.h"
#include "storage/database.h"

namespace fastqre::benchqre {

/// Per-layer totals accumulated over replayed requests. Times are wall
/// milliseconds summed over the spans of each kind.
struct LayerTotals {
  double covered_ms = 0;  // sum of every span inside the requests
  double engine_init_ms = 0;
  double rout_set_ms = 0;
  double cover_ms = 0;
  double cgm_ms = 0;
  double mapping_ms = 0;
  double walks_ms = 0;
  double compose_ms = 0;
  double validate_ms = 0;
  double validate_accepted_ms = 0;
  double answer_ms = 0;
  uint64_t validate_calls = 0;
  uint64_t validate_accepted = 0;
  /// Final per-request statistics, accumulated (peak bytes as a maximum).
  QreStats stats;
  uint64_t max_walk_cache_bytes = 0;
  uint64_t max_subplan_cache_bytes = 0;
};

/// Replays ReverseAll(rout, limit) under `options` (validation_threads
/// must be 1). Spans go to `recorder` under a fresh request id; totals are
/// added to `totals`.
Result<std::vector<QreAnswer>> ReplayReverseAll(const Database& db,
                                                const Table& rout, int limit,
                                                const QreOptions& options,
                                                SpanRecorder* recorder,
                                                LayerTotals* totals);

/// Compares two answer lists: the same found flags, SQL and failure
/// reasons in the same order, and identical search counters in every
/// answer's statistics snapshot. Returns the first difference, or an empty
/// string.
std::string SameSearch(const std::vector<QreAnswer>& engine,
                       const std::vector<QreAnswer>& replay);

}  // namespace fastqre::benchqre
