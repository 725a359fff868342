#include "qre/validator.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <utility>

#include "common/interrupt.h"
#include "common/resource_governor.h"
#include "common/thread_pool.h"
#include "engine/block_executor.h"
#include "engine/executor.h"

namespace fastqre {

namespace {

// A check-local memo's bytes, charged to `governor` (may be null) as an
// optional "walk-cache-build" materialization in 64 KB quanta and released
// when the check returns.
struct MemoCharge {
  std::shared_ptr<ResourceGovernor> governor;
  uint64_t pending = 0;
  uint64_t charged = 0;

  ~MemoCharge() {
    if (governor != nullptr) governor->Release(charged);
  }
  // Adds `bytes` to the memo; false when the governor refuses a quantum.
  bool Add(uint64_t bytes) {
    if ((pending += bytes) < 64 * 1024) return true;
    if (governor != nullptr &&
        !governor->TryCharge(pending, "walk-cache-build")) {
      return false;
    }
    charged += std::exchange(pending, 0);
    return true;
  }
};

void SortUnique(std::vector<ValueId>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

// True iff the sorted ranges `a` and `b` share a value.
bool Intersects(std::span<const ValueId> a, std::span<const ValueId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  for (ValueId x : a) {
    if (std::binary_search(b.begin(), b.end(), x)) return true;
  }
  return false;
}

}  // namespace

const char* CandidateOutcomeToString(CandidateOutcome outcome) {
  switch (outcome) {
    case CandidateOutcome::kGenerating: return "generating";
    case CandidateOutcome::kMissingTuples: return "missing-tuples";
    case CandidateOutcome::kExtraTuples: return "extra-tuples";
    case CandidateOutcome::kIncoherentWalk: return "incoherent-walk";
    case CandidateOutcome::kBudgetExhausted: return "budget-exhausted";
    case CandidateOutcome::kError: return "error";
  }
  return "unknown";
}

Validator::Validator(const Database* db, const Table* rout,
                     const TupleSet* rout_set, const ColumnMapping* mapping,
                     const std::vector<Walk>* walks, const QreOptions* options,
                     Feedback* feedback, QreStats* stats, WalkCache* walk_cache,
                     std::function<bool()> budget_exceeded, ExecPolicy policy)
    : db_(db),
      rout_(rout),
      rout_set_(rout_set),
      mapping_(mapping),
      walks_(walks),
      options_(options),
      feedback_(feedback),
      stats_(stats),
      walk_cache_(walk_cache),
      budget_exceeded_(std::move(budget_exceeded)),
      policy_(policy) {}

Validator::Execution Validator::PrepareExecution(
    const CandidateQuery& candidate) {
  Execution exec;
  if (walk_cache_ == nullptr || candidate.walk_ids.empty()) {
    exec.query = candidate.query;
    return exec;
  }
  std::vector<const Walk*> group;
  group.reserve(candidate.walk_ids.size());
  for (int id : candidate.walk_ids) group.push_back(&(*walks_)[id]);
  std::vector<bool> materialized(group.size(), false);
  bool any = false;
  for (size_t i = 0; i < group.size(); ++i) {
    const Walk& w = *group[i];
    if (w.length() < 2) continue;  // direct join: nothing to substitute
    WalkSignature sig = CanonicalWalkSignature(*db_, w);
    WalkCache::Handle h =
        walk_cache_->Acquire(*db_, sig, stats_, budget_exceeded_);
    if (!h) continue;  // not admitted / being built / interrupted
    VirtualJoin vj;
    vj.a = static_cast<InstanceId>(w.from_instance);
    vj.col_a = sig.from_col;
    vj.b = static_cast<InstanceId>(w.to_instance);
    vj.col_b = sig.to_col;
    vj.a_to_b = sig.flipped ? &h->reverse : &h->forward;
    vj.b_to_a = sig.flipped ? &h->forward : &h->reverse;
    // Key domains for SIP (DESIGN.md §13); the executor only consults them
    // when policy_.use_sip is on.
    vj.a_domain = sig.flipped ? &h->reverse_domain : &h->forward_domain;
    vj.b_domain = sig.flipped ? &h->forward_domain : &h->reverse_domain;
    exec.vjoins.push_back(vj);
    exec.pins.push_back(std::move(h));
    materialized[i] = true;
    any = true;
  }
  // ComposeQueryFromWalksPartial numbers instance i as mapping instance i,
  // which is what the virtual joins above reference.
  exec.query = any ? ComposeQueryFromWalksPartial(*db_, *mapping_, group,
                                                  materialized)
                   : candidate.query;
  return exec;
}

CandidateOutcome Validator::ProbeCheck(const Execution& exec) {
  const size_t n = rout_->num_rows();
  const int probes = std::min<int>(options_->probe_tuples, static_cast<int>(n));

  // Membership probes: bind every projection column to a sampled R_out
  // tuple; an empty result proves the tuple cannot be generated.
  for (int p = 0; p < probes; ++p) {
    RowId row = static_cast<RowId>(probes == 1 ? 0 : p * (n - 1) / (probes - 1));
    PJQuery probe = exec.query;
    const auto& projections = probe.projections();
    for (size_t j = 0; j < projections.size(); ++j) {
      probe.AddSelection(projections[j].instance, projections[j].column,
                         rout_->column(static_cast<ColumnId>(j)).at(row));
    }
    auto cursor = QueryCursor::Create(*db_, probe, budget_exceeded_,
                                      exec.vjoins, policy_);
    if (!cursor.ok()) return CandidateOutcome::kError;
    std::vector<ValueId> out_row;
    bool hit = (*cursor)->Next(&out_row);
    stats_->validation_rows += (*cursor)->rows_examined();
    stats_->probe_rows += (*cursor)->rows_examined();
    stats_->sip_rows_skipped += (*cursor)->sip_rows_skipped();
    if ((*cursor)->interrupted()) return CandidateOutcome::kBudgetExhausted;
    if (!hit) return CandidateOutcome::kMissingTuples;
  }

  // Partial probe (exact only): bind the first projection column and stream
  // a bounded prefix; any produced tuple outside R_out dismisses Q.
  if (options_->variant == QreVariant::kExact && probes > 0 &&
      rout_->num_columns() > 0) {
    PJQuery probe = exec.query;
    const auto& proj0 = probe.projections()[0];
    probe.AddSelection(proj0.instance, proj0.column, rout_->column(0).at(0));
    auto cursor = QueryCursor::Create(*db_, probe, budget_exceeded_,
                                      exec.vjoins, policy_);
    if (!cursor.ok()) return CandidateOutcome::kError;
    std::vector<ValueId> out_row;
    uint64_t streamed = 0;
    while (streamed < kPartialProbeRowCap && (*cursor)->Next(&out_row)) {
      ++streamed;
      ++stats_->validation_rows;
      ++stats_->probe_rows;
      if (rout_set_->count(out_row) == 0) {
        stats_->sip_rows_skipped += (*cursor)->sip_rows_skipped();
        return CandidateOutcome::kExtraTuples;
      }
    }
    stats_->sip_rows_skipped += (*cursor)->sip_rows_skipped();
    if ((*cursor)->interrupted()) return CandidateOutcome::kBudgetExhausted;
  }
  return CandidateOutcome::kGenerating;  // "not dismissed"
}

Validator::Coherence Validator::WalkCoherent(int walk_id) {
  const auto memo = feedback_->WalkCoherence(walk_id);
  if (memo.has_value()) {
    return *memo ? Coherence::kCoherent : Coherence::kIncoherent;
  }
  ++stats_->walk_coherence_checks;

  // Reach runs in the walk's own orientation, from the from-endpoint's join
  // column to the to-endpoint's. sig.hops is canonical, so a flipped chain is
  // walked in reverse, and its cached relation read backwards.
  const Walk& walk = (*walks_)[walk_id];
  const WalkSignature sig = CanonicalWalkSignature(*db_, walk);
  std::vector<WalkHop> hops = sig.hops;
  if (sig.flipped) {
    std::reverse(hops.begin(), hops.end());
    for (WalkHop& hop : hops) std::swap(hop.in_col, hop.out_col);
  }
  struct Endpoint {
    int instance;
    ColumnId join_col;
    std::vector<ColumnId> key_cols{};  // columns generating R_out columns
    const HashIndex* index = nullptr;  // over key_cols
    std::vector<ValueId> joins{};      // distinct join values of a key's rows
  };
  Endpoint ends[2] = {{walk.from_instance, sig.from_col},
                      {walk.to_instance, sig.to_col}};
  // A needed tuple holds the from-endpoint's R_out columns, then the
  // to-endpoint's, each in slot order. Every mapping instance generates one
  // at least, so neither key is empty.
  std::vector<ColumnId> out_cols;
  for (Endpoint& e : ends) {
    for (ColumnId c = 0; c < mapping_->slots.size(); ++c) {
      if (mapping_->slots[c].first != e.instance) continue;
      e.key_cols.push_back(mapping_->slots[c].second);
      out_cols.push_back(c);
    }
    e.index = db_->TryGetOrBuildIndex(mapping_->instances[e.instance].table,
                                      e.key_cols, budget_exceeded_);
    if (e.index == nullptr) return Coherence::kNoVerdict;
  }

  // reach(u) is {u} for a direct join, the walk cache's relation when it
  // serves one, and otherwise the chain walked once per u through
  // single-column hop indexes, memoized for this check only.
  WalkCache::Handle relation;
  if (walk_cache_ != nullptr && sig.cacheable) {
    relation = walk_cache_->Acquire(*db_, sig, stats_, budget_exceeded_);
  }
  const ReachMap* cached = nullptr;
  if (relation != nullptr) {
    cached = sig.flipped ? &relation->reverse : &relation->forward;
  }
  std::vector<const HashIndex*> hop_index;
  for (size_t i = 0; cached == nullptr && i < hops.size(); ++i) {
    hop_index.push_back(db_->TryGetOrBuildIndex(
        hops[i].table, {hops[i].in_col}, budget_exceeded_));
    if (hop_index.back() == nullptr) return Coherence::kNoVerdict;
  }
  // gov: charged — MemoCharge, released when the check returns.
  ReachMap walked;
  MemoCharge charge{policy_.governor != nullptr ? policy_.governor
                                                : db_->governor()};
  uint64_t work = 0;
  // Sets `*out` to reach(u) (for a direct join, a span over `u` itself);
  // false when the run stopped mid-chain or the governor refused the memo.
  auto reach = [&](const ValueId& u, std::span<const ValueId>* out) {
    if (hops.empty()) {
      *out = std::span<const ValueId>(&u, 1);
      return true;
    }
    if (cached != nullptr) {
      const auto it = cached->find(u);
      *out = it == cached->end() ? std::span<const ValueId>() : it->second;
      return true;
    }
    if (const auto it = walked.find(u); it != walked.end()) {
      *out = it->second;
      return true;
    }
    std::vector<ValueId> frontier{u};
    std::vector<ValueId> next;
    for (size_t i = 0; i < hops.size() && !frontier.empty(); ++i) {
      const Column& hop_out = db_->table(hops[i].table).column(hops[i].out_col);
      next.clear();
      for (ValueId x : frontier) {
        for (RowId r : hop_index[i]->Lookup1(x)) {
          next.push_back(hop_out.at(r));
          if ((++work & kInterruptPollMask) == 0 && BudgetExceeded()) {
            return false;
          }
        }
      }
      stats_->validation_rows += next.size();
      stats_->coherence_rows += next.size();
      SortUnique(&next);
      frontier.swap(next);
    }
    const std::vector<ValueId>& kept =
        walked.emplace(u, std::move(frontier)).first->second;
    *out = kept;
    // Per entry: key, vector header, payload and ~16 bytes of node overhead.
    return charge.Add(sizeof(ValueId) + sizeof(kept) +
                      kept.capacity() * sizeof(ValueId) + 16);
  };

  // gov: bounded — one projection of R_out, freed at scope exit.
  TupleSet needed = ProjectToTupleSet(*rout_, out_cols, budget_exceeded_);
  if (BudgetExceeded()) return Coherence::kNoVerdict;  // partial needed-set
  // A conjunction over the needed tuples, in R_out row order: the verdict
  // does not depend on that order, only the rows counted before the first
  // uncovered tuple do.
  for (std::span<const ValueId> tuple : needed) {
    size_t offset = 0;
    for (Endpoint& e : ends) {
      const std::span<const RowId> rows =
          e.index->Lookup(tuple.subspan(offset, e.key_cols.size()));
      offset += e.key_cols.size();
      stats_->validation_rows += rows.size();
      stats_->coherence_rows += rows.size();
      const Column& join =
          db_->table(mapping_->instances[e.instance].table).column(e.join_col);
      e.joins.clear();
      for (RowId r : rows) e.joins.push_back(join.at(r));
      SortUnique(&e.joins);
    }
    // The tuple is covered iff some from-side u reaches a to-side value.
    bool connected = false;
    for (size_t i = 0;
         !connected && !ends[1].joins.empty() && i < ends[0].joins.size();
         ++i) {
      std::span<const ValueId> reached;
      if (!reach(ends[0].joins[i], &reached)) return Coherence::kNoVerdict;
      connected = Intersects(reached, ends[1].joins);
    }
    if (!connected) {
      feedback_->SetWalkCoherence(walk_id, false);
      return Coherence::kIncoherent;
    }
    if ((++work & kInterruptPollMask) == 0 && BudgetExceeded()) {
      return Coherence::kNoVerdict;
    }
  }
  feedback_->SetWalkCoherence(walk_id, true);
  return Coherence::kCoherent;
}

CandidateOutcome Validator::AllTupleProbe(const Execution& exec) {
  // Advanced probing (the multi-tuple horizontal check of Appendix A, whose
  // text is unavailable; this is our design): verify R_out ⊆ Q(D) with one
  // index-backed point probe per R_out tuple.
  const size_t rows = rout_->num_rows();
  if (rows == 0) return CandidateOutcome::kGenerating;
  PJQuery probe = exec.query;
  const auto projections = probe.projections();

  if (!policy_.batch_probes) {
    // Legacy scalar pass (ablation baseline): replan one cursor per tuple.
    for (RowId r = 0; r < rows; ++r) {
      probe.ClearSelections();
      for (size_t j = 0; j < projections.size(); ++j) {
        probe.AddSelection(projections[j].instance, projections[j].column,
                           rout_->column(static_cast<ColumnId>(j)).at(r));
      }
      auto cursor =
          QueryCursor::Create(*db_, probe, budget_exceeded_, exec.vjoins);
      if (!cursor.ok()) return CandidateOutcome::kError;
      std::vector<ValueId> out_row;
      bool hit = (*cursor)->Next(&out_row);
      stats_->validation_rows += (*cursor)->rows_examined();
      stats_->alltuple_rows += (*cursor)->rows_examined();
      stats_->sip_rows_skipped += (*cursor)->sip_rows_skipped();
      if ((*cursor)->interrupted()) return CandidateOutcome::kBudgetExhausted;
      if (!hit) return CandidateOutcome::kMissingTuples;
      if ((r & kInterruptPollMask) == 0 && BudgetExceeded()) {
        return CandidateOutcome::kBudgetExhausted;
      }
    }
    return CandidateOutcome::kGenerating;  // R_out ⊆ Q(D) established
  }

  // Batched pass (DESIGN.md §12): R_out is partitioned into morsels; each
  // morsel worker plans one cursor and rebinds it per tuple, so the
  // per-probe Create/plan cost — the dominant residual cost of E12's convoy
  // tail — is paid once per morsel. The verdict is a conjunction over
  // tuples, so it is independent of morsel completion order; a proven miss
  // takes precedence over an interrupt (it is a true dismissal proof either
  // way, and under no stop signal every configuration scans every tuple).
  for (size_t j = 0; j < projections.size(); ++j) {
    probe.AddSelection(projections[j].instance, projections[j].column,
                       rout_->column(static_cast<ColumnId>(j)).at(0));
  }
  const size_t morsel = policy_.MorselSize();
  const size_t num_morsels = (rows + morsel - 1) / morsel;
  // The engine's own governor (see ExecPolicy::governor); the database
  // attachment is only the standalone fallback.
  const std::shared_ptr<ResourceGovernor> governor =
      policy_.governor != nullptr ? policy_.governor : db_->governor();
  std::atomic<bool> missing{false};
  std::atomic<bool> interrupted{false};
  std::atomic<bool> error{false};
  std::atomic<uint64_t> examined{0};
  std::atomic<uint64_t> sip_skips{0};
  auto run_morsel = [&](size_t m) {
    if (missing.load(std::memory_order_relaxed) ||
        interrupted.load(std::memory_order_relaxed) ||
        error.load(std::memory_order_relaxed)) {
      return;
    }
    // Fault site "morsel-worker": one poll per probe morsel; an injected
    // alloc-fail dismisses this candidate only (kError), an injected cancel
    // lands at the cursor's next interrupt poll.
    if (governor != nullptr &&
        governor->FaultPointAllocFails("morsel-worker")) {
      error.store(true, std::memory_order_relaxed);
      return;
    }
    auto created =
        QueryCursor::Create(*db_, probe, budget_exceeded_, exec.vjoins,
                            policy_);
    if (!created.ok()) {
      error.store(true, std::memory_order_relaxed);
      return;
    }
    std::unique_ptr<QueryCursor> cursor = std::move(created).ValueOrDie();
    std::vector<ValueId> vals(projections.size());
    std::vector<ValueId> out_row;
    const size_t lo = m * morsel;
    const size_t hi = std::min(rows, lo + morsel);
    for (size_t r = lo; r < hi; ++r) {
      for (size_t j = 0; j < vals.size(); ++j) {
        vals[j] = rout_->column(static_cast<ColumnId>(j))
                      .at(static_cast<RowId>(r));
      }
      cursor->Rebind(vals.data(), vals.size());
      bool hit = cursor->Next(&out_row);
      if (cursor->interrupted()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      if (!hit) {
        missing.store(true, std::memory_order_relaxed);
        break;
      }
    }
    examined.fetch_add(cursor->rows_examined(), std::memory_order_relaxed);
    sip_skips.fetch_add(cursor->sip_rows_skipped(), std::memory_order_relaxed);
  };
  RunMorsels(policy_.WantsParallel(rows) ? policy_.pool : nullptr,
             policy_.intra_threads - 1, num_morsels, run_morsel);
  const uint64_t total = examined.load(std::memory_order_relaxed);
  stats_->validation_rows += total;
  stats_->alltuple_rows += total;
  stats_->sip_rows_skipped += sip_skips.load(std::memory_order_relaxed);
  if (missing.load(std::memory_order_relaxed)) {
    return CandidateOutcome::kMissingTuples;
  }
  if (error.load(std::memory_order_relaxed)) return CandidateOutcome::kError;
  if (interrupted.load(std::memory_order_relaxed) || BudgetExceeded()) {
    return CandidateOutcome::kBudgetExhausted;
  }
  return CandidateOutcome::kGenerating;  // R_out ⊆ Q(D) established
}

CandidateOutcome Validator::FullCheck(const CandidateQuery& candidate,
                                      const Execution& exec) {
  ++stats_->full_validations;

  if (options_->use_probing) {
    if (options_->variant == QreVariant::kSuperset) return AllTupleProbe(exec);
    // Exact: the extras walk (DESIGN.md §13) stops at the first distinct
    // tuple outside R_out and resumes from a convoy sibling's cached prefix.
    // It knows nothing of virtual joins, so it runs the unsubstituted query
    // (prefix signatures then align whichever walks were materialized).
    bool violated = false;
    BlockRunStats brs;
    auto result = ExecuteBlock(*db_, candidate.query, "extras",
                               budget_exceeded_, policy_, rout_set_, &violated,
                               &brs);
    stats_->validation_rows += brs.rows_enumerated;
    stats_->fullscan_rows += brs.rows_enumerated;
    stats_->sip_rows_skipped += brs.sip_rows_skipped;
    // A walk that met no tuple outside R_out returned the whole distinct Q(D)
    // (§13, *Order*): Q(D) ⊆ R_out, and equality is a count.
    if (result.ok() && !violated) {
      return result->num_rows() == rout_set_->size()
                 ? CandidateOutcome::kGenerating
                 : CandidateOutcome::kMissingTuples;
    }
    // Unless a global stop ended the walk, missing tuples outrank its extra
    // tuple or candidate-local failure, so the probe classifies the dismissal.
    if (!result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted &&
        BudgetExceeded()) {
      return CandidateOutcome::kBudgetExhausted;
    }
    const CandidateOutcome subset = AllTupleProbe(exec);
    if (subset != CandidateOutcome::kGenerating) return subset;
    return result.ok() ? CandidateOutcome::kExtraTuples
                       : CandidateOutcome::kError;
  }

  if (!options_->use_progressive_validation) {
    // The paper's "single block operation": evaluate Q(D) in full with a
    // guard-less block executor call, which enumerates every binding of the
    // join and memoizes nothing, then compare. No early exit of any kind.
    // The block executor knows nothing of virtual joins, so the
    // unsubstituted query is used here.
    BlockRunStats brs;
    auto result = ExecuteBlock(*db_, candidate.query, "block", budget_exceeded_,
                               policy_, nullptr, nullptr, &brs);
    stats_->sip_rows_skipped += brs.sip_rows_skipped;
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kResourceExhausted) {
        // Either a global stop (time budget, cancel, memory exhaustion)
        // fired mid-evaluation, or this one candidate blew the block
        // executor's intermediate-size cap / governor charge. Only the
        // former aborts the whole search; the latter skips just this
        // candidate (it cannot be classified, so nothing is pruned).
        return BudgetExceeded() ? CandidateOutcome::kBudgetExhausted
                                : CandidateOutcome::kError;
      }
      return CandidateOutcome::kError;
    }
    stats_->validation_rows += result->num_rows();
    stats_->fullscan_rows += result->num_rows();
    // gov: charged — the block result's bytes were charged (and released)
    // as "block-buffer" inside ExecuteBlock; this projection of it is
    // transient and scope-bounded.
    TupleSet result_set = TableToTupleSet(*result, budget_exceeded_);
    if (BudgetExceeded()) return CandidateOutcome::kBudgetExhausted;
    // The containment checks return a conservative false under interrupt, so
    // each verdict is re-checked against the budget before it can classify
    // (and thereby prune) the candidate.
    CandidateOutcome out;
    if (options_->variant == QreVariant::kExact) {
      if (result_set.size() != rout_set_->size()) {
        out = !IsSubsetOf(*rout_set_, result_set, budget_exceeded_)
                  ? CandidateOutcome::kMissingTuples
                  : CandidateOutcome::kExtraTuples;
      } else {
        out = IsSubsetOf(result_set, *rout_set_, budget_exceeded_)
                  ? CandidateOutcome::kGenerating
                  : CandidateOutcome::kExtraTuples;
      }
    } else {
      out = IsSubsetOf(*rout_set_, result_set, budget_exceeded_)
                ? CandidateOutcome::kGenerating
                : CandidateOutcome::kMissingTuples;
    }
    return BudgetExceeded() ? CandidateOutcome::kBudgetExhausted : out;
  }

  // Progressive evaluation (without probing): stream and stop at the first
  // contradiction.
  auto cursor = QueryCursor::Create(*db_, exec.query, budget_exceeded_,
                                    exec.vjoins, policy_);
  if (!cursor.ok()) return CandidateOutcome::kError;

  std::vector<ValueId> row;
  // gov: bounded — at most |R_out| tuples ever inserted.
  TupleSet covered;
  covered.reserve(rout_set_->size());
  auto fold_sip = [&] {
    stats_->sip_rows_skipped += (*cursor)->sip_rows_skipped();
  };
  while ((*cursor)->Next(&row)) {
    ++stats_->validation_rows;
    if ((stats_->validation_rows & kInterruptPollMask) == 0 &&
        BudgetExceeded()) {
      fold_sip();
      return CandidateOutcome::kBudgetExhausted;
    }
    if (rout_set_->count(row) == 0) {
      if (options_->variant == QreVariant::kExact) {
        fold_sip();
        return CandidateOutcome::kExtraTuples;  // progressive early exit
      }
      continue;  // superset: extra tuples are allowed
    }
    covered.insert(row);
    if (options_->variant == QreVariant::kSuperset &&
        covered.size() == rout_set_->size()) {
      fold_sip();
      return CandidateOutcome::kGenerating;  // superset early exit
    }
  }
  fold_sip();
  if ((*cursor)->interrupted()) return CandidateOutcome::kBudgetExhausted;
  return covered.size() == rout_set_->size() ? CandidateOutcome::kGenerating
                                             : CandidateOutcome::kMissingTuples;
}

CandidateOutcome Validator::Validate(const CandidateQuery& candidate) {
  if (BudgetExceeded()) return CandidateOutcome::kBudgetExhausted;

  // Walk substitution up front: every later stage of the cascade runs the
  // reduced query when the cache has the candidate's chains materialized.
  Execution exec = PrepareExecution(candidate);

  if (options_->use_probing && options_->probe_tuples > 0 &&
      rout_->num_rows() > 0) {
    CandidateOutcome probe = ProbeCheck(exec);
    if (probe != CandidateOutcome::kGenerating) {
      if (probe == CandidateOutcome::kMissingTuples ||
          probe == CandidateOutcome::kExtraTuples) {
        ++stats_->candidates_dismissed_probe;
      }
      return probe;
    }
  }

  if (options_->use_indirect_coherence) {
    for (int walk_id : candidate.walk_ids) {
      if (WalkCoherent(walk_id) == Coherence::kIncoherent) {
        ++stats_->candidates_dismissed_walk;
        return CandidateOutcome::kIncoherentWalk;
      }
      // No verdict under a stop is not a dismissal (DESIGN.md §8); without
      // one, the governor refused the memo and the full check decides.
      if (BudgetExceeded()) return CandidateOutcome::kBudgetExhausted;
    }
  }

  return FullCheck(candidate, exec);
}

}  // namespace fastqre
