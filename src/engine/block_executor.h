// Block (materializing) PJ-query evaluation.
//
// The counterpart of the pipelined QueryCursor: evaluates the query
// bottom-up with hash joins, materializing each intermediate relation in
// full — "running it as a single block operation" in the paper's words
// (Section 4.1), i.e. the behaviour of a conventional DBMS executing a
// candidate query without a get-next interface. The naive baseline's
// non-progressive validation uses this path; it is also a differential
// oracle for the pipelined executor in tests. With a subset guard it is the
// validator's exact extra-tuple check instead: a depth-first walk over the
// same plan that stops at the first projected tuple outside the guard.
//
// Materializing execution is morsel-driven (DESIGN.md §12): each join step
// partitions its driving relation into fixed-size morsels, processed either
// on the calling thread or on a shared ThreadPool per the ExecPolicy, with
// per-morsel result buffers merged back in morsel-index order — so the
// output table is byte-identical at any thread count, morsel size, or
// kernel choice. The guard walk is serial.
//
// Two sideways accelerations ride on the policy (DESIGN.md §13), both
// semantics-preserving:
//   * SIP filters (policy.use_sip): rows whose join value is provably
//     absent from a future join partner's column are skipped before they
//     enter an intermediate relation.
//   * Subplan memoization (policy.subplan_cache): the intermediate after
//     each join prefix is looked up / stored under a canonical prefix
//     signature, so convoy candidates sharing a prefix resume from the
//     deepest cached intermediate instead of rejoining from scratch. On the
//     materializing path, hits replay the stored pre-filter enumeration
//     count, keeping the intermediate-size-cap verdict cache-state
//     invariant; the guard walk stores a level only after a walk that found
//     no extra tuple, and caps each level separately.
#pragma once

#include <functional>

#include "common/result.h"
#include "engine/compare.h"
#include "engine/exec_policy.h"
#include "engine/query.h"
#include "storage/database.h"

namespace fastqre {

/// \brief Per-run observability of one ExecuteBlock call. Valid when the
/// call returned OK or stopped at a subset-guard violation; error paths may
/// leave it partially filled.
struct BlockRunStats {
  /// Pre-filter match rows (index posting-list entries) enumerated across
  /// all join steps. Without a guard it includes the replayed counts of
  /// memoized prefixes, so the value is identical whether a prefix was
  /// recomputed or served from cache. With a guard it counts only what this
  /// call's walk looked up: a cache hit skips its prefix's work, so the
  /// value depends on cache state (the verdict and the table do not).
  uint64_t rows_enumerated = 0;
  /// Rows skipped by SIP filters (each had a join value provably absent
  /// from some future join partner).
  uint64_t sip_rows_skipped = 0;
  /// Join prefixes served from the subplan cache (0 or 1 per call: only the
  /// deepest cached prefix is consumed).
  uint64_t subplan_hits = 0;
};

/// \brief Evaluates `query` with materializing hash joins and returns the
/// full *distinct* projected result as a table named `name`.
///
/// Unlike QueryCursor there is no early exit of any kind — the cost of the
/// whole join is always paid, which is exactly the behaviour the
/// progressive-evaluation component is designed to avoid — with one opt-in
/// exception: when `subset_guard` is non-null, the call becomes an exact
/// extra-tuple check (guard = R_out, violation = the candidate produces a
/// tuple outside it). The join is then walked depth-first, one binding at a
/// time, and the walk stops at the first distinct projected tuple NOT in the
/// guard set, setting `*subset_violated` (which must be non-null then) and
/// returning the partial table. Tuples are met in the materializing order,
/// so the verdict is exact and a non-violating run returns the same table,
/// byte for byte, as a guard-less call.
/// `interrupt` (may be empty) is polled once per morsel of work — per
/// morsel of driving rows, or per `morsel_size` index lookups of the guard
/// walk, and inside hash-index builds this call triggers — and when it fires
/// the evaluation stops with ResourceExhausted within one morsel.
/// `policy` picks the probe kernels (scalar vs batched), the morsel dispatch
/// (serial vs pool workers; the guard walk is always serial), SIP filtering,
/// and subplan memoization; the returned table and the guard verdict are
/// identical under every combination.
/// `run_stats` (may be null) receives per-run counters.
Result<Table> ExecuteBlock(const Database& db, const PJQuery& query,
                           const std::string& name,
                           std::function<bool()> interrupt = {},
                           const ExecPolicy& policy = {},
                           const TupleSet* subset_guard = nullptr,
                           bool* subset_violated = nullptr,
                           BlockRunStats* run_stats = nullptr);

}  // namespace fastqre
