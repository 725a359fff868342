// Execution statistics reported by FastQre::Reverse — the accounting behind
// experiments E7 (preprocessing) and E9 (candidate counts).
#pragma once

#include <cstdint>
#include <string>

#include "common/counters.h"

namespace fastqre {

/// \brief Counters and timings for one Reverse() run.
///
/// Search counters are relaxed atomics (RelaxedCounter): with
/// QreOptions::validation_threads > 1 they are bumped concurrently from
/// validation workers. They stay copyable and implicitly convertible to
/// uint64_t, so single-threaded call sites are unchanged.
///
/// Relaxed is the right (and only permitted) order here per the memory-order
/// policy in common/counters.h: these are monotonic tallies that never gate
/// visibility of other data — exact totals are read only after the worker
/// pool has joined, which itself provides the needed synchronization.
struct QreStats {
  // Preprocessing (single-threaded phase).
  double cover_seconds = 0.0;
  double cgm_seconds = 0.0;
  RelaxedCounter cover_pairs_total = 0;    // candidate (c, R.a) pairs considered
  RelaxedCounter cover_pairs_pruned = 0;   // dismissed by pattern compatibility
  RelaxedCounter cover_pairs_checked = 0;  // full set-containment checks run
  RelaxedCounter cgm_candidates_checked = 0;
  RelaxedCounter num_cgms = 0;

  // Search.
  RelaxedCounter mappings_tried = 0;
  RelaxedCounter walks_discovered = 0;
  RelaxedCounter candidates_generated = 0;     // popped from PQ2 (or single queue)
  RelaxedCounter candidates_validated = 0;     // validations run to completion
  RelaxedCounter candidates_cancelled = 0;     // abandoned: a better-ranked
                                               // candidate already won
  RelaxedCounter walk_sets_expanded = 0;       // PQ1 pops across all composers
  RelaxedCounter candidates_pruned_dead = 0;   // skipped via feedback dead sets
  RelaxedCounter candidates_dismissed_probe = 0;
  RelaxedCounter candidates_dismissed_walk = 0;  // via indirect coherence
  RelaxedCounter walk_coherence_checks = 0;
  RelaxedCounter full_validations = 0;         // candidates reaching the full check
  RelaxedCounter validation_rows = 0;          // result rows streamed during checks
  // Phase attribution of validation_rows:
  RelaxedCounter probe_rows = 0;       // quick 2-tuple + partial probes
  RelaxedCounter coherence_rows = 0;   // walk-coherence streams
  RelaxedCounter alltuple_rows = 0;    // per-R_out-tuple membership probes
  RelaxedCounter fullscan_rows = 0;    // extra-tuple hunts (join matches)

  // Walk-materialization cache (DESIGN.md §9). hits/misses count Acquire()
  // calls that did / did not return a materialized relation; bytes is a
  // gauge snapshotted at answer time (resident relation bytes).
  RelaxedCounter walk_cache_hits = 0;
  RelaxedCounter walk_cache_misses = 0;
  RelaxedCounter walk_cache_evictions = 0;
  RelaxedCounter walk_cache_bytes = 0;

  // Sideways information passing (DESIGN.md §13): rows skipped by presence/
  // domain bitmap filters across both executors (each passed its local
  // predicates but was provably absent from a later join partner).
  RelaxedCounter sip_rows_skipped = 0;

  // Subplan memoization cache (DESIGN.md §13). hits/misses count block-
  // execution prefix lookups; bytes is a gauge snapshotted at answer time
  // (resident memoized-prefix bytes).
  RelaxedCounter subplan_cache_hits = 0;
  RelaxedCounter subplan_cache_misses = 0;
  RelaxedCounter subplan_cache_evictions = 0;
  RelaxedCounter subplan_cache_bytes = 0;

  // Resource governor (DESIGN.md §11). peak_tracked_bytes is the high-water
  // mark of governor-charged bytes during the run; degradation_events counts
  // ladder escalations (shrink / pipelined-only / exhausted); cancelled is
  // set when the run stopped because of FastQre::Cancel() (or an injected
  // cancel fault), as opposed to a time or memory budget.
  RelaxedCounter peak_tracked_bytes = 0;
  RelaxedCounter degradation_events = 0;
  bool cancelled = false;

  double total_seconds = 0.0;

  /// Multi-line human-readable report.
  std::string ToString() const;

  /// Accumulates counters (used by benchmark sweeps).
  void Accumulate(const QreStats& other);
};

}  // namespace fastqre
