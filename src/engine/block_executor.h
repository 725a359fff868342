// Block PJ-query evaluation: one serial, depth-first walk (DESIGN.md §13).
//
// The counterpart of the pipelined QueryCursor: evaluates the query over a
// left-deep hash-join plan and returns its whole distinct result — "running
// it as a single block operation" in the paper's words (Section 4.1), i.e.
// the behaviour of a conventional DBMS executing a candidate query without a
// get-next interface. The naive baseline's non-progressive validation uses
// it that way; it is also a differential oracle for the pipelined executor
// in tests. With a subset guard it is the validator's exact extra-tuple
// check instead: the same walk stops at the first projected tuple outside
// the guard.
//
// Both uses run one evaluator. The start table is scanned into a root
// relation; from each root binding the walk extends one join level at a
// time with a per-binding index lookup, and the leaf projects and dedupes.
// Tuples come out in nested-loop order over the plan, so the output table
// is byte-identical at any morsel size, with SIP on or off, and in every
// cache state, guard or no guard.
//
// Two sideways accelerations ride on the policy (DESIGN.md §13), both
// semantics-preserving:
//   * SIP filters (policy.use_sip): rows whose join value is provably
//     absent from a future join partner's column are skipped before the walk
//     descends through them.
//   * Subplan memoization (policy.subplan_cache, guarded calls only): each
//     level's deduped bindings are looked up / stored under a canonical
//     prefix signature, so convoy candidates sharing a prefix resume from
//     the deepest stored level instead of rejoining from scratch. A level is
//     stored only after a walk that found no extra tuple.
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
  /// Pre-filter match rows (index posting-list entries) this call's walk
  /// looked up, across all join levels. Without a guard that is every
  /// binding's matches, the whole join. With a guard a cache hit skips its
  /// prefix's work and the interface dedup skips duplicate bindings, so the
  /// value depends on cache state (the verdict and the table do not).
  uint64_t rows_enumerated = 0;
  /// Rows skipped by SIP filters (each had a join value provably absent
  /// from some future join partner), plus probes a composite-key filter
  /// proved empty.
  uint64_t sip_rows_skipped = 0;
  /// Join prefixes served from the subplan cache (0 or 1 per call: only the
  /// deepest cached prefix is consumed; always 0 without a guard).
  uint64_t subplan_hits = 0;
};

/// \brief Evaluates `query` and returns the full *distinct* projected
/// result as a table named `name`.
///
/// Without `subset_guard` there is no early exit of any kind: every binding
/// of the join is enumerated and deduped at the leaf, which is exactly the
/// cost the progressive-evaluation component is designed to avoid.
/// `policy.subplan_cache` is ignored then, so nothing is memoized.
/// When `subset_guard` is non-null, the call becomes an exact extra-tuple
/// check (guard = R_out, violation = the candidate produces a tuple outside
/// it): the walk stops at the first distinct projected tuple NOT in the
/// guard set, setting `*subset_violated` (which must be non-null then) and
/// returning the partial table. Tuples are met in the same order either way,
/// so the verdict is exact and a non-violating run returns the same table,
/// byte for byte, as a guard-less call.
/// `interrupt` (may be empty) is polled once per morsel of work — per
/// `policy.morsel_size` scanned rows, root bindings or index lookups, and
/// inside hash-index builds this call triggers — and when it fires the
/// evaluation stops with ResourceExhausted within one morsel.
/// Of `policy`, the call reads `morsel_size`, `use_sip`, `subplan_cache`
/// and `governor`; the returned table and the guard verdict are identical
/// under every combination.
/// `run_stats` (may be null) receives per-run counters.
Result<Table> ExecuteBlock(const Database& db, const PJQuery& query,
                           const std::string& name,
                           std::function<bool()> interrupt = {},
                           const ExecPolicy& policy = {},
                           const TupleSet* subset_guard = nullptr,
                           bool* subset_violated = nullptr,
                           BlockRunStats* run_stats = nullptr);

}  // namespace fastqre
