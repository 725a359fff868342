// Cross-candidate subplan memoization for block execution (DESIGN.md §13).
//
// Convoy candidates share long join prefixes: the block executor joins
// instances in a deterministic smallest-table-first order, so two candidates
// whose queries agree on the first k placed instances (tables, join key
// sources, selections, self joins, and the interface columns the suffix
// reads) recompute the same deduped join level. This cache stores those
// levels — flat RowId matrices, as the guarded walk of ExecuteBlock
// completed them — keyed by a canonical prefix signature, so the second and
// later candidates of a convoy resume from the deepest cached prefix instead
// of rejoining from scratch. Guard-less calls neither read nor fill it.
//
// The cache lives in the engine layer (block_executor is the producer and
// consumer) and therefore keeps its own counters instead of depending on
// qre/stats.h; the QRE engine snapshots them into QreStats per run.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/resource_governor.h"
#include "common/thread_annotations.h"
#include "storage/table.h"

namespace fastqre {

/// \brief One memoized join level: the block executor's flat row-major
/// binding matrix after some join-prefix. Immutable after insertion;
/// consumers hold it through a shared_ptr pin, so eviction never invalidates
/// a reader.
struct SubplanTable {
  // gov: charged — Insert charges stored tables to the governor
  // ("subplan-build"); rejected tables are transient caller-owned copies.
  std::vector<RowId> rows;  // width RowIds per binding row
  size_t width = 0;
  size_t bytes = 0;  // estimated resident size (budget accounting)
};

/// \brief Budgeted, thread-safe LRU cache of SubplanTables keyed by the
/// block executor's canonical join-prefix signature.
///
/// Admission: a prefix is stored only once it has been looked up at least
/// `admission` times (one-shot prefixes never pay the snapshot copy).
/// Eviction: LRU by table bytes down to `budget_bytes`; evicted entries keep
/// their use counters, so a re-hot prefix is re-admitted on its next
/// insert offer. Concurrency: Lookup/Insert are independently atomic; two
/// workers racing to insert the same key store byte-identical tables (a
/// level's deduped bindings are a function of its signature and the data),
/// first wins.
class SubplanCache {
 public:
  using Signature = std::vector<uint32_t>;
  using Handle = std::shared_ptr<const SubplanTable>;

  /// `governor` (may be null) is charged for resident table bytes
  /// ("subplan-build", also a fault-injection site) and consulted before
  /// storing: once the degradation ladder reaches pipelined-only
  /// (DESIGN.md §11), inserts are refused.
  SubplanCache(size_t budget_bytes, int admission,
               std::shared_ptr<ResourceGovernor> governor = nullptr)
      : budget_bytes_(budget_bytes),
        admission_(admission),
        governor_(std::move(governor)) {}

  SubplanCache(const SubplanCache&) = delete;
  SubplanCache& operator=(const SubplanCache&) = delete;

  /// Returns the stored table for `sig` (bumping its use count and LRU
  /// position) or nullptr. Every call counts as one request toward the
  /// admission threshold.
  Handle Lookup(const Signature& sig);

  /// True when an Insert for `sig` would currently be accepted (admitted by
  /// use count and not already stored) — lets the producer skip the snapshot
  /// copy for prefixes the cache would refuse anyway. Advisory: the answer
  /// can change before Insert, which re-checks.
  bool WantsInsert(const Signature& sig) const;

  /// Offers a finished prefix table. Stores it iff the prefix is admitted,
  /// absent, within budget, and the governor accepts the charge (injected
  /// "subplan-build" alloc-fail or memory pressure refuses the store, never
  /// the candidate). Returns true when stored.
  bool Insert(const Signature& sig, Handle table);

  /// Evicts LRU tables until resident bytes drop to `target_bytes` (the
  /// governor's pressure action; also usable directly). Pinned readers are
  /// unaffected — eviction only drops the cache's references.
  void ShrinkTo(size_t target_bytes) EXCLUDES(mu_);

  /// Current resident table bytes (gauge).
  size_t bytes() const;

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

  /// Configured byte budget (for pressure-hook arithmetic).
  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    // All fields are guarded by the owning cache's mu_ (expressed on the
    // containing map below; Clang attributes cannot name an outer class's
    // mutex from a nested struct).
    Handle table;  // null until stored (or after eviction)
    uint64_t uses = 0;
    std::list<Entry*>::iterator lru_it;  // valid iff table != nullptr
  };

  void EvictDownTo(size_t target_bytes) REQUIRES(mu_);

  const size_t budget_bytes_;
  const int admission_;
  // Charged before mu_ is taken on inserts (a failed charge may escalate
  // the governor, whose pressure hook re-enters this cache through
  // ShrinkTo); Release is atomic-only and safe under mu_ on eviction paths.
  const std::shared_ptr<ResourceGovernor> governor_;

  // Relaxed atomics: bumped from concurrent validation workers; the QRE
  // engine snapshots them into QreStats after each run.
  RelaxedCounter hits_ = 0;
  RelaxedCounter misses_ = 0;
  RelaxedCounter evictions_ = 0;

  mutable Mutex mu_;
  // Entries are never erased (only their tables are dropped), so Entry
  // pointers held by the LRU list stay stable.
  // gov: charged — each entry's table bytes are charged as "subplan-build"
  // and released on eviction; map nodes are per-signature metadata.
  std::unordered_map<Signature, Entry, IdTupleHash> entries_ GUARDED_BY(mu_);
  std::list<Entry*> lru_ GUARDED_BY(mu_);  // front = most recently used
  size_t bytes_used_ GUARDED_BY(mu_) = 0;
};

}  // namespace fastqre
