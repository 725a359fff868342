// Execution policy for one candidate: vectorized (batched) probe kernels
// and morsel-driven intra-candidate parallelism (DESIGN.md §12), SIP and
// subplan memoization (§13), and the governor charged.
//
// The policy travels from QreOptions through the validator into the block
// executor and the pipelined cursor. Every combination of its knobs yields
// byte-identical results — the morsel-dispatched pass is a verdict-only
// conjunction and the batched kernels preserve the scalar kernels' row
// visit order — so the policy only ever changes how fast a candidate
// executes, never what the search answers. The block executor reads only
// morsel_size, use_sip, subplan_cache and governor.
#pragma once

#include <cstddef>
#include <memory>

namespace fastqre {

class ResourceGovernor;
class SubplanCache;
class ThreadPool;

/// \brief Default driving-relation tuples per morsel: large enough that the
/// per-morsel scheduling and interrupt-poll cost is amortized away, small
/// enough that a deadline or Cancel() lands within a few thousand rows.
inline constexpr size_t kDefaultMorselSize = 2048;

/// \brief How a candidate's joins execute.
struct ExecPolicy {
  /// Vectorized column probes: HashIndex::LookupBatch in the cursor's
  /// reach-driven builds, and rebind-amortized point probes in the
  /// validator's all-tuple probe. Off = the legacy tuple-at-a-time kernels
  /// (ablation axis, E14). The block executor and the coherence check
  /// (which runs no cursor) ignore it.
  bool batch_probes = true;

  /// Total workers (calling thread included) running the all-tuple probe's
  /// morsels (superset proofs, exact dismissals); <= 1 stays on the caller.
  /// The block executor is serial and ignores it.
  int intra_threads = 1;

  /// Driving-relation tuples per morsel — also the block executor's
  /// interrupt-poll granularity (per morsel of scanned rows, root bindings
  /// or index lookups).
  size_t morsel_size = kDefaultMorselSize;

  /// Smallest driving relation worth dispatching to the pool; below it the
  /// scheduling overhead exceeds the win and morsels stay on the caller.
  size_t intra_threshold = 4096;

  /// Shared worker pool for morsel dispatch; not owned, may be null (serial).
  ThreadPool* pool = nullptr;

  /// Sideways information passing (DESIGN.md §13): push per-(table, column)
  /// presence bitmaps of future join partners into scan and probe steps, so
  /// rows provably absent from every later endpoint never enter an
  /// intermediate relation. Semantics-preserving — surviving rows keep their
  /// visit order, so results stay byte-identical. Off = ablation axis (E15).
  bool use_sip = true;

  /// Cross-candidate memo of the exact extras check's join levels
  /// (DESIGN.md §13); not owned, may be null (no memoization — the
  /// --subplan-cache-mb 0 ablation cell; the check still runs, only without
  /// resuming from a stored prefix). Guard-less ExecuteBlock calls ignore
  /// it. Verdicts and answers are cache-state invariant.
  SubplanCache* subplan_cache = nullptr;

  /// The governor charged (and polled for injected faults) for
  /// candidate-local execution state — the driving engine's own accounting
  /// identity. The Database's attached governor is NOT used for this: that
  /// attachment is last-attach-wins across engines sharing the database, so
  /// a concurrently constructed engine (possibly with a tiny budget) would
  /// have its ladder refuse another engine's charges and silently dismiss
  /// its candidates. Null falls back to the database attachment, for
  /// standalone executor use outside an engine.
  std::shared_ptr<ResourceGovernor> governor;

  /// Morsels actually go to the pool only when all three gates agree.
  bool WantsParallel(size_t driving_rows) const {
    return intra_threads > 1 && pool != nullptr &&
           driving_rows >= intra_threshold;
  }

  /// Morsel size clamped away from 0 (a 0 would loop forever).
  size_t MorselSize() const { return morsel_size == 0 ? 1 : morsel_size; }
};

}  // namespace fastqre
