#include "qre/validator.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>

#include "common/interrupt.h"
#include "common/thread_pool.h"
#include "engine/block_executor.h"
#include "engine/executor.h"

namespace fastqre {

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

bool Validator::TryCachedCoherence(const Walk& walk, bool* verdict) {
  if (walk_cache_ == nullptr || walk.length() < 2) return false;
  WalkSignature sig = CanonicalWalkSignature(*db_, walk);
  WalkCache::Handle h =
      walk_cache_->Acquire(*db_, sig, stats_, budget_exceeded_);
  if (!h) return false;
  // Reachability in the walk's own from -> to orientation.
  const ReachMap& fwd = sig.flipped ? h->reverse : h->forward;

  // Mirror ComposeWalkSubquery's projection order: the R_out columns
  // generated from the two endpoint instances, in slot order, split by
  // endpoint side.
  std::vector<ColumnId> out_cols;
  std::vector<size_t> from_j, to_j;          // tuple positions per endpoint
  std::vector<ColumnId> from_cols, to_cols;  // endpoint db columns
  for (ColumnId c = 0; c < mapping_->slots.size(); ++c) {
    const auto& [inst, db_col] = mapping_->slots[c];
    if (inst == walk.from_instance) {
      from_j.push_back(out_cols.size());
      from_cols.push_back(db_col);
      out_cols.push_back(c);
    } else if (inst == walk.to_instance) {
      to_j.push_back(out_cols.size());
      to_cols.push_back(db_col);
      out_cols.push_back(c);
    }
  }
  if (from_cols.empty() || to_cols.empty()) return false;

  const Table& from_table =
      db_->table(mapping_->instances[walk.from_instance].table);
  const Table& to_table = db_->table(mapping_->instances[walk.to_instance].table);
  const HashIndex& from_index =
      db_->GetOrBuildIndex(mapping_->instances[walk.from_instance].table,
                           from_cols);
  const HashIndex& to_index = db_->GetOrBuildIndex(
      mapping_->instances[walk.to_instance].table, to_cols);
  const Column& from_join = from_table.column(sig.from_col);
  const Column& to_join = to_table.column(sig.to_col);

  // Per needed tuple: the endpoint rows matching the tuple's bindings, and
  // whether any pair of them is connected by the materialized chain.
  // gov: bounded — one projection of R_out, freed at scope exit.
  TupleSet needed = ProjectToTupleSet(*rout_, out_cols, budget_exceeded_);
  if (BudgetExceeded()) return false;  // No verdict: partial needed-set.
  std::vector<ValueId> key_from(from_cols.size()), key_to(to_cols.size());
  std::vector<ValueId> us, vs;
  size_t probed = 0;
  bool coherent = true;
  // Forall over needed tuples, in R_out row order (TupleSet iterates in
  // insertion order); `coherent` is a conjunction, so the verdict does not
  // depend on that order (interrupted runs publish nothing, per the
  // no-memo-under-interrupt rule).
  for (std::span<const ValueId> tuple : needed) {
    for (size_t k = 0; k < from_j.size(); ++k) key_from[k] = tuple[from_j[k]];
    for (size_t k = 0; k < to_j.size(); ++k) key_to[k] = tuple[to_j[k]];
    const std::span<const RowId> rows_from = from_index.Lookup(key_from);
    const std::span<const RowId> rows_to = to_index.Lookup(key_to);
    stats_->validation_rows += rows_from.size() + rows_to.size();
    stats_->coherence_rows += rows_from.size() + rows_to.size();
    bool connected = false;
    if (!rows_from.empty() && !rows_to.empty()) {
      us.clear();
      for (RowId r : rows_from) us.push_back(from_join.at(r));
      std::sort(us.begin(), us.end());
      us.erase(std::unique(us.begin(), us.end()), us.end());
      vs.clear();
      for (RowId r : rows_to) vs.push_back(to_join.at(r));
      std::sort(vs.begin(), vs.end());
      vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
      for (ValueId u : us) {
        auto it = fwd.find(u);
        if (it == fwd.end()) continue;
        for (ValueId v : vs) {
          if (std::binary_search(it->second.begin(), it->second.end(), v)) {
            connected = true;
            break;
          }
        }
        if (connected) break;
      }
    }
    if (!connected) {
      coherent = false;
      break;
    }
    if ((++probed & kInterruptPollMask) == 0 && BudgetExceeded()) {
      // Unproven either way under timeout: no verdict (caller won't memoize).
      return false;
    }
  }
  *verdict = coherent;
  return true;
}

bool Validator::WalkCoherent(int walk_id) {
  auto memo = feedback_->WalkCoherence(walk_id);
  if (memo.has_value()) return *memo;

  ++stats_->walk_coherence_checks;

  bool verdict = false;
  if (TryCachedCoherence((*walks_)[walk_id], &verdict)) {
    feedback_->SetWalkCoherence(walk_id, verdict);
    return verdict;
  }

  std::vector<ColumnId> out_cols;
  PJQuery subquery =
      ComposeWalkSubquery(*db_, *mapping_, (*walks_)[walk_id], &out_cols);

  // Needed: every tuple of pi_outcols(R_out) must appear in the walk
  // subquery's result. Checked by one index-backed point probe per needed
  // tuple (binding the subquery's projection columns), so an incoherent
  // walk is detected without draining the subquery's full result.
  // gov: bounded — one projection of R_out, freed at scope exit.
  TupleSet needed = ProjectToTupleSet(*rout_, out_cols, budget_exceeded_);
  if (BudgetExceeded()) return false;  // No verdict: partial needed-set.
  const auto projections = subquery.projections();
  bool coherent = true;
  size_t probed = 0;
  // One cursor serves every probe: created on the first tuple, rebound for
  // the rest (with batch_probes off, the legacy per-tuple replanning is
  // kept as the ablation baseline). The accumulated rows_examined() is
  // folded into the stats exactly once, on every exit path.
  std::unique_ptr<QueryCursor> shared_cursor;
  uint64_t counted_rows = 0;
  uint64_t counted_sips = 0;
  auto count_rows = [&](const QueryCursor& cursor) {
    const uint64_t delta = cursor.rows_examined() - counted_rows;
    counted_rows = cursor.rows_examined();
    stats_->validation_rows += delta;
    stats_->coherence_rows += delta;
    stats_->sip_rows_skipped += cursor.sip_rows_skipped() - counted_sips;
    counted_sips = cursor.sip_rows_skipped();
  };
  // Forall-probe conjunction over needed tuples, in R_out row order; the
  // verdict does not depend on that order, only the rows probed before the
  // first uncovered tuple do.
  for (std::span<const ValueId> tuple : needed) {
    QueryCursor* cursor = nullptr;
    if (policy_.batch_probes && shared_cursor != nullptr) {
      shared_cursor->Rebind(tuple.data(), tuple.size());
      cursor = shared_cursor.get();
    } else {
      subquery.ClearSelections();
      for (size_t j = 0; j < projections.size(); ++j) {
        subquery.AddSelection(projections[j].instance, projections[j].column,
                              tuple[j]);
      }
      auto created =
          QueryCursor::Create(*db_, subquery, budget_exceeded_, {}, policy_);
      if (!created.ok()) {
        coherent = false;
        break;
      }
      shared_cursor = std::move(created).ValueOrDie();
      counted_rows = 0;
      counted_sips = 0;
      cursor = shared_cursor.get();
    }
    std::vector<ValueId> row;
    bool hit = cursor->Next(&row);
    count_rows(*cursor);
    if (cursor->interrupted()) {
      // Unproven either way under timeout: do not memoize a verdict.
      return false;
    }
    if (!hit) {
      coherent = false;
      break;
    }
    if ((++probed & kInterruptPollMask) == 0 && BudgetExceeded()) {
      // Unproven either way: do not memoize a verdict under timeout.
      return false;
    }
  }
  feedback_->SetWalkCoherence(walk_id, coherent);
  return coherent;
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
      if (!WalkCoherent(walk_id)) {
        ++stats_->candidates_dismissed_walk;
        return CandidateOutcome::kIncoherentWalk;
      }
      if (BudgetExceeded()) return CandidateOutcome::kBudgetExhausted;
    }
  }

  return FullCheck(candidate, exec);
}

}  // namespace fastqre
