// Execution statistics reported by FastQre::Reverse — the accounting behind
// experiments E7 (preprocessing) and E9 (candidate counts).
//
// Every field is declared once, in FASTQRE_QRE_STATS. The members, the
// ToString() report, Accumulate(), the JSON members that `fastqre reverse
// --stats-json` prints and the wire answer's "stats" object
// (server/protocol.cc) are all generated from that list, so a new field is
// one line there.
#pragma once

#include <string>

#include "common/counters.h"

namespace fastqre {

/// How QreStats::Accumulate merges a field across runs.
enum class StatMerge {
  kSum,  // tallies and seconds
  kMax,  // high-water marks and gauges (bytes resident at one time)
  kOr,   // flags
};

// X(type, name, section, merge): one entry per QreStats field, in report
// order. `section` labels the ToString() line that shows the field, so the
// fields of one section are adjacent; `merge` names a StatMerge.
// clang-format off
#define FASTQRE_QRE_STATS(X)                                              \
  X(double, total_seconds, "total time", kSum)                            \
  /* Preprocessing (single-threaded phase). */                            \
  X(double, cover_seconds, "column cover", kSum)                          \
  /* candidate (c, R.a) pairs considered */                               \
  X(RelaxedCounter, cover_pairs_total, "column cover", kSum)              \
  /* dismissed by pattern compatibility */                                \
  X(RelaxedCounter, cover_pairs_pruned, "column cover", kSum)             \
  /* full set-containment checks run */                                   \
  X(RelaxedCounter, cover_pairs_checked, "column cover", kSum)            \
  X(double, cgm_seconds, "CGM discovery", kSum)                           \
  X(RelaxedCounter, cgm_candidates_checked, "CGM discovery", kSum)        \
  X(RelaxedCounter, num_cgms, "CGM discovery", kSum)                      \
  X(RelaxedCounter, mappings_tried, "search", kSum)                       \
  X(RelaxedCounter, walks_discovered, "search", kSum)                     \
  /* popped from PQ2 (or single queue) */                                 \
  X(RelaxedCounter, candidates_generated, "candidates generated", kSum)   \
  /* PQ1 pops across all composers */                                     \
  X(RelaxedCounter, walk_sets_expanded, "candidates generated", kSum)     \
  /* skipped via feedback dead sets */                                    \
  X(RelaxedCounter, candidates_pruned_dead, "candidates generated", kSum) \
  /* validations run to completion */                                     \
  X(RelaxedCounter, candidates_validated, "validation", kSum)             \
  /* abandoned: a better-ranked candidate already won */                  \
  X(RelaxedCounter, candidates_cancelled, "validation", kSum)             \
  X(RelaxedCounter, candidates_dismissed_probe, "validation", kSum)       \
  /* via indirect coherence */                                            \
  X(RelaxedCounter, candidates_dismissed_walk, "validation", kSum)        \
  X(RelaxedCounter, walk_coherence_checks, "validation", kSum)            \
  /* candidates reaching the full check */                                \
  X(RelaxedCounter, full_validations, "validation", kSum)                 \
  /* result rows streamed during checks, by phase below: */               \
  X(RelaxedCounter, validation_rows, "rows streamed", kSum)               \
  /* quick 2-tuple + partial probes */                                    \
  X(RelaxedCounter, probe_rows, "rows streamed", kSum)                    \
  /* endpoint index matches + chain values walked */                      \
  X(RelaxedCounter, coherence_rows, "rows streamed", kSum)                \
  /* per-R_out-tuple membership probes */                                 \
  X(RelaxedCounter, alltuple_rows, "rows streamed", kSum)                 \
  /* extra-tuple hunts (join matches) */                                  \
  X(RelaxedCounter, fullscan_rows, "rows streamed", kSum)                 \
  /* Walk-materialization cache (DESIGN.md §9). hits/misses count         \
     Acquire() calls that did / did not return a materialized relation;   \
     bytes is a gauge snapshotted at answer time (resident relation       \
     bytes). */                                                           \
  X(RelaxedCounter, walk_cache_hits, "walk cache", kSum)                  \
  X(RelaxedCounter, walk_cache_misses, "walk cache", kSum)                \
  X(RelaxedCounter, walk_cache_evictions, "walk cache", kSum)             \
  X(RelaxedCounter, walk_cache_bytes, "walk cache", kMax)                 \
  /* Sideways information passing (DESIGN.md §13): rows skipped by        \
     presence/domain bitmap filters across both executors (each passed    \
     its local predicates but was provably absent from a later join       \
     partner). */                                                         \
  X(RelaxedCounter, sip_rows_skipped, "sideways passing", kSum)           \
  /* Subplan memoization cache (DESIGN.md §13). hits/misses count         \
     block-execution prefix lookups; bytes is a gauge snapshotted at      \
     answer time (resident memoized-prefix bytes). */                     \
  X(RelaxedCounter, subplan_cache_hits, "subplan cache", kSum)            \
  X(RelaxedCounter, subplan_cache_misses, "subplan cache", kSum)          \
  X(RelaxedCounter, subplan_cache_evictions, "subplan cache", kSum)       \
  X(RelaxedCounter, subplan_cache_bytes, "subplan cache", kMax)           \
  /* Resource governor (DESIGN.md §11). peak_tracked_bytes is the         \
     high-water mark of governor-charged bytes during the run;            \
     degradation_events counts ladder escalations (shrink /               \
     pipelined-only / exhausted); cancelled is set when the run stopped   \
     because of FastQre::Cancel() (or an injected cancel fault), as       \
     opposed to a time or memory budget. */                               \
  X(RelaxedCounter, peak_tracked_bytes, "resource governor", kMax)        \
  X(RelaxedCounter, degradation_events, "resource governor", kSum)        \
  X(bool, cancelled, "resource governor", kOr)
// clang-format on

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
#define FASTQRE_DECLARE_STAT(type, name, section, merge) type name{};
  FASTQRE_QRE_STATS(FASTQRE_DECLARE_STAT)
#undef FASTQRE_DECLARE_STAT

  /// Multi-line human-readable report: one line per section, each field as
  /// name=value.
  std::string ToString() const;

  /// Every field as a JSON member "name":value, comma-separated in list
  /// order, without braces (`fastqre reverse --stats-json` wraps them).
  std::string JsonMembers() const;

  /// Merges another run's stats into this one, each field by its StatMerge
  /// (used by benchmark sweeps).
  void Accumulate(const QreStats& other);

  /// Calls visit(name, section, field) for every field of `stats`, in list
  /// order; `field` is mutable when `stats` is.
  template <typename Stats, typename Visitor>
  static void ForEachField(Stats& stats, Visitor&& visit) {
#define FASTQRE_VISIT_STAT(type, name, section, merge) \
  visit(#name, section, stats.name);
    FASTQRE_QRE_STATS(FASTQRE_VISIT_STAT)
#undef FASTQRE_VISIT_STAT
  }
};

}  // namespace fastqre
