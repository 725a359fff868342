// Tuning knobs of the FastQRE framework, including ablation toggles for each
// novel component (used by experiment E4) and the QRE-variant switch.
#pragma once

#include <cstdint>
#include <string>

namespace fastqre {

/// \brief Which QRE problem variant to solve (Definitions 3.1 / 3.2).
enum class QreVariant {
  /// Find Q with Q(D) = R_out.
  kExact,
  /// Find Q with Q(D) ⊇ R_out. Tree-shaped query graphs suffice for this
  /// variant, which the composer exploits.
  kSuperset,
};

/// \brief Options controlling the FastQRE pipeline.
struct QreOptions {
  QreVariant variant = QreVariant::kExact;

  /// L of the "L-short walks" in Section 4.4: maximum number of schema-graph
  /// edges per discovered walk.
  int max_walk_length = 3;

  /// Cap on walks kept per instance pair (the paper notes |W| can exceed
  /// 100; capping per pair, in BFS length order, bounds the subset lattice).
  int max_walks_per_pair = 24;

  /// alpha of Q_alpha = alpha*Q_dc + (1-alpha)*Q_ex (Section 4.4.2).
  double alpha = 0.5;

  /// C1 of Algorithm 1 line 13: keep draining PQ1 while its best Q_dc is
  /// within this slack of PQ2's best.
  double pool_dc_slack = 2.0;

  /// C2 of Algorithm 1 line 13: target size of the PQ2 candidate pool.
  int pool_min_size = 16;

  /// How many ranked column mappings to try before giving up.
  int max_mappings = 64;

  /// Cap on candidate queries validated per column mapping.
  uint64_t max_candidates_per_mapping = 20000;

  /// Cap on expanded states in the mapping enumerator's best-first search.
  uint64_t max_mapping_states = 200000;

  /// Largest CGM size discovered (R_out is rarely wider than this).
  int max_cgm_columns = 8;

  /// Wall-clock budget for one Reverse() call; 0 = unlimited. On timeout,
  /// Reverse returns ResourceExhausted with the statistics gathered so far.
  double time_budget_seconds = 0.0;

  /// Byte budget of the ResourceGovernor (DESIGN.md §11): tracked bytes of
  /// every large search-path allocation (hash indexes, block buffers, walk
  /// materializations, mapping frontier). 0 = unlimited (accounting still
  /// runs, so QreStats::peak_tracked_bytes is always meaningful). On
  /// pressure the engine degrades gracefully — walk-cache shrink, then
  /// pipelined-only validation — before aborting the search with
  /// failure_reason "memory budget exceeded".
  uint64_t memory_budget_bytes = 0;

  /// Deterministic fault-injection spec (testing; see
  /// common/fault_injection.h for the grammar). Empty: fall back to the
  /// FASTQRE_FAULTS environment variable; both empty: injection disabled at
  /// zero overhead.
  std::string fault_spec;

  /// Number of threads validating candidate queries concurrently. 1 (the
  /// default) keeps the exact serial pipeline; N > 1 runs the composer on
  /// the calling thread feeding a bounded queue drained by N workers, each
  /// with its own QueryCursor. Answers are deterministic regardless of N:
  /// a generating candidate is only accepted once every higher-ranked
  /// candidate has completed non-generating (the rank barrier), so the SQL
  /// returned is byte-identical to a serial run.
  int validation_threads = 1;

  /// Capacity of the composer→worker candidate queue per mapping; 0 derives
  /// 2 × validation_threads. The bound back-pressures the composer so it
  /// never runs arbitrarily far ahead of the rank frontier.
  int validation_queue_capacity = 0;

  /// Workers (including the validating thread itself) executing morsels
  /// *inside* one candidate's all-tuple probe (DESIGN.md §12), which runs
  /// for superset candidates and for exact ones the extras walk dismissed.
  /// 1 (the default) keeps each candidate on its validation thread; N > 1
  /// dispatches morsels onto an engine-owned pool shared across validation
  /// threads. The probe is a conjunction over tuples, so answers stay
  /// byte-identical at any setting. The block executor ignores it.
  int intra_candidate_threads = 1;

  /// R_out tuples per all-tuple probe morsel — also the block executor's
  /// interrupt-poll granularity (a deadline or Cancel() lands within one
  /// morsel of work). Clamped to >= 1.
  int morsel_size = 2048;

  /// Smallest R_out (rows) whose all-tuple probe is dispatched to the
  /// intra-candidate pool; below it morsels stay on the validating thread.
  int intra_row_threshold = 4096;

  /// Vectorized (batched) column probes: HashIndex::LookupBatch in the
  /// cursor's reach-driven builds, and rebind-amortized point probes in the
  /// validator's all-tuple and coherence probes. Off = the legacy
  /// tuple-at-a-time kernels (ablation axis, experiment E14). The block
  /// executor probes one binding at a time and ignores it. Results are
  /// byte-identical either way.
  bool use_batched_probes = true;

  /// Number of R_out tuples bound by probing queries per candidate
  /// (the basic probing mechanism of Section 4.1; 0 disables).
  int probe_tuples = 2;

  /// Byte budget of the cross-candidate walk-materialization cache
  /// (WalkCache): materialized endpoint semi-join relations of join-path
  /// walks, shared across candidates, mappings and validation threads, with
  /// LRU eviction once the budget is exceeded. 0 disables the cache (every
  /// walk stays pipelined). The cache never changes accepted answers — only
  /// how much join work validation performs (DESIGN.md §9).
  uint64_t walk_cache_budget_bytes = 64ull << 20;

  /// Admission threshold of the walk cache: a walk's relation is only
  /// materialized once the walk has been executed this many times, so
  /// one-off walks never pay the materialization cost.
  int walk_cache_admission = 2;

  /// Sideways information passing (DESIGN.md §13): push per-(table, column)
  /// presence bitmaps — and walk relations' key-domain bitmaps — into scan
  /// and probe steps of both executors, so rows provably absent from every
  /// later join partner are skipped before entering an intermediate
  /// relation. Semantics-preserving (answers stay byte-identical). Off =
  /// ablation axis of experiment E15.
  bool use_sip = true;

  /// Byte budget of the cross-candidate subplan memoization cache
  /// (SubplanCache): the exact extras check's deduped join levels, keyed by
  /// canonical prefix signature and shared across convoy candidates. 0
  /// disables memoization only: the exact extras check runs the same
  /// depth-first block walk either way, without resuming from cached
  /// prefixes (the --subplan-cache-mb 0 ablation cell of E15). Guard-less
  /// block evaluation (non-progressive validation) never uses the cache.
  /// Never changes accepted answers (DESIGN.md §13).
  uint64_t subplan_cache_budget_bytes = 64ull << 20;

  /// Admission threshold of the subplan cache: a join level is kept once
  /// its prefix has been requested this many times. 1 (the default) caches
  /// on first execution, so convoy candidates reuse prefixes immediately.
  int subplan_cache_admission = 1;

  // --- Ablation toggles (experiment E4). All on by default. ---------------

  /// Rank column mappings using CGMs (Sections 4.2-4.3). Off: mappings are
  /// enumerated from per-column covers with unrestricted instance grouping
  /// and no Jaccard ranking (the naive behaviour).
  bool use_cgm_ranking = true;

  /// Indirect column coherence: lazily check walk coherence and filter all
  /// candidate queries containing incoherent walks (Section 4.5).
  bool use_indirect_coherence = true;

  /// Two-queue ranked composition with Q_alpha (Algorithm 1). Off: the
  /// "basic approach" (single queue ordered by Q_dc only), exhibiting the
  /// convoy effect of Figure 9.
  bool use_two_queue_composer = true;

  /// Progressive evaluation: stream Q(D) and stop at the first tuple
  /// contradicting R_out. Off: materialize Q(D) fully, then compare.
  bool use_progressive_validation = true;

  /// Basic probing queries before full validation.
  bool use_probing = true;

  /// Feedback module: dead walk-set subtree pruning from
  /// missing-tuple failures plus incoherent-walk memoization.
  bool use_feedback_pruning = true;

  /// Pattern-based pruning of column-cover comparisons (Section 4.1).
  bool use_pattern_pruning = true;

  /// Record a QreTrace (ranked mappings + per-candidate verdicts) in the
  /// answer. Off by default: traces of long searches can be large.
  bool collect_trace = false;
};

}  // namespace fastqre
