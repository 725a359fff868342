#include "qre/fastqre.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <thread>
#include <unordered_set>

#include "common/fault_injection.h"
#include "common/resource_governor.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/compare.h"
#include "engine/subplan_cache.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/composer.h"
#include "qre/feedback.h"
#include "qre/mapping.h"
#include "qre/validator.h"
#include "qre/walk_cache.h"
#include "qre/walks.h"

namespace fastqre {

namespace {

// Re-encodes `rout` against the database dictionary (if needed) and
// collapses duplicate rows: the paper's pi/⊆ machinery is set-semantics.
Result<Table> NormalizeRout(const Database& db, const Table& rout) {
  Table out(rout.name(), db.dictionary());
  for (size_t c = 0; c < rout.num_columns(); ++c) {
    FASTQRE_RETURN_NOT_OK(
        out.AddColumn(rout.column(c).name(), rout.column(c).type()));
  }
  const bool same_dict = rout.dictionary() == db.dictionary();
  // gov: bounded — one set of R_out's rows (small by problem definition),
  // freed at scope exit.
  TupleSet seen(rout.num_columns());
  seen.reserve(rout.num_rows());
  std::vector<ValueId> ids(rout.num_columns());
  // poll: bounded — one pass over R_out's rows (small by problem
  // definition); normalization finishes before any budget can expire.
  for (RowId r = 0; r < rout.num_rows(); ++r) {
    for (size_t c = 0; c < rout.num_columns(); ++c) {
      const ValueId id = rout.column(c).at(r);
      ids[c] = same_dict ? id
                         : db.dictionary()->Intern(rout.dictionary()->Get(id));
    }
    if (seen.insert(ids).second) out.AppendRowIds(ids);
  }
  return out;
}

// ---- Parallel candidate validation ------------------------------------------
//
// With QreOptions::validation_threads > 1, the composer stays on the calling
// thread and feeds ranked candidates (tagged with a rank sequence number)
// into a bounded queue drained by N workers, each validating with its own
// QueryCursor against the shared thread-safe Database caches and Feedback.
//
// Determinism protocol (DESIGN.md §8): the answer must be byte-identical to
// a serial run, so a generating verdict at rank s is only *accepted* after
// every rank < s has completed non-generating (the rank barrier, enforced at
// finalization by scanning outcomes in rank order). Conversely, once the
// `need`-th generating candidate is known at rank f, candidates ranked below
// it (seq > f) are cancelled: queued ones are dropped, in-flight ones are
// interrupted through the executor's interrupt callback. Feedback published
// by workers is conservative (it only ever dismisses provably non-generating
// subtrees), so sharing it across threads reorders *work*, never *answers*.

// One validated (or cancelled) candidate, tagged with its rank.
struct RankedOutcome {
  uint64_t seq = 0;
  CandidateQuery cand;
  CandidateOutcome outcome = CandidateOutcome::kError;
  // True if validation was skipped or interrupted because a better-ranked
  // generating candidate had already won (not a real budget expiry).
  bool cancelled = false;
};

struct ParallelMappingResult {
  std::vector<RankedOutcome> outcomes;  // sorted by rank
  bool budget_exhausted = false;
};

// Runs one mapping's candidate stream through the validation worker pool.
// `need_answers` is how many more generating queries the caller wants; the
// pool cancels candidates ranked below the need_answers-th generating one.
ParallelMappingResult RunMappingParallel(
    const Database* db, const Table* rout, const TupleSet* rout_set,
    const ColumnMapping* mapping, const std::vector<Walk>* walks,
    const QreOptions* options, Feedback* feedback, QreStats* stats,
    WalkCache* walk_cache, const std::function<bool()>& budget_exceeded,
    RankedComposer* composer, int need_answers, ResourceGovernor* governor,
    const ExecPolicy& policy) {
  struct Item {
    uint64_t seq;
    CandidateQuery cand;
  };
  constexpr uint64_t kNoFloor = std::numeric_limits<uint64_t>::max();
  const int num_workers = std::max(1, options->validation_threads);
  // Two candidates per worker: the bound back-pressures the composer so it
  // never runs arbitrarily far ahead of the rank frontier.
  BoundedQueue<Item> queue(static_cast<size_t>(2 * num_workers));

  // Ranks strictly greater than cancel_floor can no longer affect the
  // answer set and are cancelled.
  std::atomic<uint64_t> cancel_floor{kNoFloor};
  std::atomic<bool> hard_abort{false};  // real time-budget expiry
  Mutex mu;                             // guards outcomes + generating_seqs
  ParallelMappingResult result;
  std::vector<uint64_t> generating_seqs;  // sorted ranks of generating hits

  auto worker = [&] {
    Item item;
    while (queue.Pop(&item)) {
      // Fault site "parallel-worker": fires once per dequeued candidate, so
      // a cancel/delay schedule can target the exact worker iteration that
      // races the rank barrier (DESIGN.md §11).
      if (governor != nullptr) governor->FaultPoint("parallel-worker");
      const uint64_t seq = item.seq;
      if (hard_abort.load(std::memory_order_relaxed) ||
          seq > cancel_floor.load(std::memory_order_relaxed)) {
        ++stats->candidates_cancelled;
        MutexLock lock(&mu);
        result.outcomes.push_back(RankedOutcome{
            seq, std::move(item.cand), CandidateOutcome::kBudgetExhausted,
            /*cancelled=*/true});
        continue;
      }
      auto interrupt = [&, seq] {
        return hard_abort.load(std::memory_order_relaxed) ||
               seq > cancel_floor.load(std::memory_order_relaxed) ||
               (budget_exceeded && budget_exceeded());
      };
      Validator validator(db, rout, rout_set, mapping, walks, options,
                          feedback, stats, walk_cache, interrupt, policy);
      CandidateOutcome outcome = validator.Validate(item.cand);
      bool cancelled = false;
      if (outcome == CandidateOutcome::kBudgetExhausted) {
        if (budget_exceeded && budget_exceeded()) {
          hard_abort.store(true, std::memory_order_relaxed);
        } else {
          cancelled = true;  // interrupted by the rank-cancellation signal
          ++stats->candidates_cancelled;
        }
      } else {
        ++stats->candidates_validated;
        if (outcome == CandidateOutcome::kMissingTuples &&
            options->use_feedback_pruning && !item.cand.walk_ids.empty()) {
          feedback->AddDeadSet(item.cand.walk_ids);
        }
      }
      MutexLock lock(&mu);
      if (outcome == CandidateOutcome::kGenerating) {
        generating_seqs.insert(
            std::upper_bound(generating_seqs.begin(), generating_seqs.end(),
                             seq),
            seq);
        if (generating_seqs.size() >= static_cast<size_t>(need_answers)) {
          uint64_t floor = generating_seqs[need_answers - 1];
          uint64_t cur = cancel_floor.load(std::memory_order_relaxed);
          while (floor < cur && !cancel_floor.compare_exchange_weak(
                                    cur, floor, std::memory_order_relaxed)) {
          }
        }
      }
      result.outcomes.push_back(
          RankedOutcome{seq, std::move(item.cand), outcome, cancelled});
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) threads.emplace_back(worker);

  // Producer: drain the composer in rank order until the candidate cap, the
  // budget, the cancellation floor, or lattice exhaustion stops it.
  CandidateQuery cand;
  uint64_t seq = 0;
  while (seq < options->max_candidates_per_mapping &&
         !hard_abort.load(std::memory_order_relaxed) &&
         cancel_floor.load(std::memory_order_relaxed) == kNoFloor &&
         composer->Next(&cand)) {
    ++stats->candidates_generated;
    if (budget_exceeded && budget_exceeded()) {
      hard_abort.store(true, std::memory_order_relaxed);
      break;
    }
    if (!queue.Push(Item{seq, std::move(cand)})) break;
    ++seq;
  }
  queue.Close();
  for (auto& t : threads) t.join();

  result.budget_exhausted = hard_abort.load(std::memory_order_relaxed);
  std::sort(result.outcomes.begin(), result.outcomes.end(),
            [](const RankedOutcome& a, const RankedOutcome& b) {
              return a.seq < b.seq;
            });
  return result;
}

}  // namespace

std::string QreTrace::ToString() const {
  std::string out;
  for (size_t m = 0; m < mappings.size(); ++m) {
    out += StringFormat("mapping #%zu: %s\n", m, mappings[m].c_str());
  }
  for (const auto& c : candidates) {
    out += StringFormat("  [m%d dc=%.0f a=%.2f] %-16s %s\n", c.mapping_index,
                        c.dc, c.alpha_cost, c.outcome.c_str(), c.sql.c_str());
  }
  return out;
}

FastQre::FastQre(const Database* db, QreOptions options)
    : db_(db), options_(std::move(options)) {
  // Fault injection: the option wins; the FASTQRE_FAULTS environment
  // variable is the no-recompile hook for CI matrices. A malformed spec is
  // remembered and reported by the next ReverseAll() call (constructors
  // cannot return Status), so it can never be silently ignored.
  std::string spec = options_.fault_spec;
  if (spec.empty()) {
    const char* env = std::getenv("FASTQRE_FAULTS");
    if (env != nullptr) spec = env;
  }
  std::unique_ptr<FaultInjector> injector;
  if (!spec.empty()) {
    auto parsed = FaultInjector::Parse(spec);
    if (parsed.ok()) {
      injector = std::move(parsed).ValueOrDie();
    } else {
      fault_spec_error_ = parsed.status();
    }
  }
  cancel_token_ = std::make_shared<CancellationToken>();
  governor_ = std::make_shared<ResourceGovernor>(
      options_.memory_budget_bytes, cancel_token_, std::move(injector));
  if (options_.intra_candidate_threads > 1) {
    // N morsel workers per batch = the dispatching thread + (N-1) helpers.
    intra_pool_ =
        std::make_unique<ThreadPool>(options_.intra_candidate_threads - 1);
  }
  if (options_.walk_cache_budget_bytes > 0) {
    walk_cache_ = std::make_shared<WalkCache>(options_.walk_cache_budget_bytes,
                                              options_.walk_cache_admission,
                                              governor_);
  }
  if (options_.subplan_cache_budget_bytes > 0) {
    subplan_cache_ = std::make_shared<SubplanCache>(
        options_.subplan_cache_budget_bytes, options_.subplan_cache_admission,
        governor_);
  }
  if (walk_cache_ != nullptr || subplan_cache_ != nullptr) {
    // Degradation rung 1 (DESIGN.md §11): under memory pressure, first shed
    // optional materializations — walk relations and memoized subplans —
    // down to half their configured budgets. The hook captures the caches
    // weakly — each cache itself holds the governor by shared_ptr, so a
    // shared capture here would be a cycle — and a late charge arriving
    // through the database attachment after a cache died simply finds no
    // hook target.
    std::weak_ptr<WalkCache> wcache = walk_cache_;
    std::weak_ptr<SubplanCache> scache = subplan_cache_;
    governor_->SetPressureHook([wcache, scache] {
      if (std::shared_ptr<WalkCache> c = wcache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
      if (std::shared_ptr<SubplanCache> c = scache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
    });
  }
  db_->AttachGovernor(governor_);
}

FastQre::~FastQre() {
  // Compare-and-clear: only detaches if no newer engine attached since.
  if (db_ != nullptr && governor_ != nullptr) {
    db_->DetachGovernor(governor_.get());
  }
}

FastQre::FastQre(FastQre&&) noexcept = default;

FastQre& FastQre::operator=(FastQre&& other) noexcept {
  if (this != &other) {
    if (db_ != nullptr && governor_ != nullptr) {
      db_->DetachGovernor(governor_.get());
    }
    db_ = other.db_;
    options_ = std::move(other.options_);
    walk_cache_ = std::move(other.walk_cache_);
    subplan_cache_ = std::move(other.subplan_cache_);
    cancel_token_ = std::move(other.cancel_token_);
    governor_ = std::move(other.governor_);
    intra_pool_ = std::move(other.intra_pool_);
    fault_spec_error_ = std::move(other.fault_spec_error_);
  }
  return *this;
}

void FastQre::Cancel() const { cancel_token_->Cancel(); }

Result<QreAnswer> FastQre::Reverse(const Table& rout) const {
  FASTQRE_ASSIGN_OR_RETURN(auto answers, ReverseAll(rout, 1));
  return std::move(answers[0]);
}

Result<std::vector<QreAnswer>> FastQre::ReverseAll(const Table& rout,
                                                   int limit) const {
  return ReverseAll(rout, limit, AnswerCallback());
}

Result<std::vector<QreAnswer>> FastQre::ReverseAll(
    const Table& rout, int limit, const AnswerCallback& on_answer) const {
  if (rout.num_columns() == 0) {
    return Status::InvalidArgument("R_out has no columns");
  }
  if (rout.num_rows() == 0) {
    return Status::InvalidArgument(
        "R_out has no rows; any query with an empty result would generate it");
  }
  if (limit < 1) return Status::InvalidArgument("limit must be >= 1");
  if (!fault_spec_error_.ok()) return fault_spec_error_;

  QreStats stats;
  // One stop predicate for every phase: deadline, Cancel() and memory
  // exhaustion all funnel through the RunControl (DESIGN.md §11), which
  // records the *first* cause to fire.
  RunControl run(options_.time_budget_seconds, cancel_token_.get(),
                 governor_.get());
  auto budget_exceeded = [&run]() { return run.ShouldStop(); };
  // The validation paths learn "the run stopped" from a boolean; the precise
  // cause lives in the RunControl. The deadline string is the fallback for
  // the pre-governor code paths that only ever stopped on time.
  auto stop_reason = [&run]() {
    std::string reason = run.reason();
    return reason.empty() ? std::string("time budget exceeded") : reason;
  };

  // Intra-candidate execution policy (DESIGN.md §12), shared by every
  // validator this call constructs. Verdicts and answers are identical for
  // every setting; only the kernels and the morsel dispatch differ.
  ExecPolicy exec_policy;
  exec_policy.batch_probes = options_.use_batched_probes;
  exec_policy.intra_threads = std::max(1, options_.intra_candidate_threads);
  exec_policy.morsel_size =
      static_cast<size_t>(std::max(1, options_.morsel_size));
  exec_policy.intra_threshold =
      static_cast<size_t>(std::max(0, options_.intra_row_threshold));
  exec_policy.pool = intra_pool_.get();
  exec_policy.use_sip = options_.use_sip;
  exec_policy.subplan_cache = subplan_cache_.get();
  // Candidate-local charges go to THIS engine's governor, never the
  // database attachment (which a concurrent engine may have displaced).
  exec_policy.governor = governor_;

  std::vector<QreAnswer> answers;
  // Single append point for the result vector: every entry is streamed to
  // `on_answer` exactly as it is committed, so the streamed sequence is the
  // returned vector (DESIGN.md §15). All three call sites run on this
  // thread after the rank barrier, so the callback never races itself.
  auto publish = [&](QreAnswer a) {
    answers.push_back(std::move(a));
    if (on_answer) on_answer(answers.back());
  };
  auto attach_run_stats = [&](QreAnswer* a) {
    a->stats.walk_cache_bytes = walk_cache_ ? walk_cache_->bytes() : 0;
    // Engine-lifetime tallies snapshotted at answer time (exact per-run
    // totals on a fresh engine, which is how the CLI and benches run).
    if (subplan_cache_ != nullptr) {
      a->stats.subplan_cache_hits = subplan_cache_->hits();
      a->stats.subplan_cache_misses = subplan_cache_->misses();
      a->stats.subplan_cache_evictions = subplan_cache_->evictions();
      a->stats.subplan_cache_bytes = subplan_cache_->bytes();
    }
    a->stats.peak_tracked_bytes = governor_->peak_tracked_bytes();
    a->stats.degradation_events = governor_->degradation_events();
    a->stats.cancelled = run.cause() == StopCause::kCancelled;
    a->stats.total_seconds = run.ElapsedSeconds();
  };
  QreTrace* trace_ptr = nullptr;  // set below once the trace exists
  // Ends the search without discarding progress: the answers already found
  // are returned, followed by one unfound entry whose failure_reason says
  // why the tail was truncated.
  auto aborted = [&](const std::string& reason) {
    QreAnswer a;
    a.found = false;
    a.failure_reason = reason;
    if (trace_ptr != nullptr) a.trace = *trace_ptr;
    a.stats = stats;
    attach_run_stats(&a);
    publish(std::move(a));
    return std::move(answers);
  };

  // ---- Preprocessing -------------------------------------------------------
  FASTQRE_ASSIGN_OR_RETURN(Table norm_rout, NormalizeRout(*db_, rout));
  // gov: bounded — one set copy of R_out (small by problem definition),
  // alive for the whole search.
  const TupleSet rout_set = TableToTupleSet(norm_rout, budget_exceeded);
  if (run.ShouldStop()) return aborted(stop_reason());

  ColumnCover cover = ComputeColumnCover(*db_, norm_rout, options_, &stats);
  if (cover.HasEmptyCover()) {
    return aborted(
        "some R_out column is contained in no database column; no PJ query "
        "can generate R_out");
  }

  CgmSet cgms;
  if (options_.use_cgm_ranking) {
    cgms = DiscoverCgms(*db_, norm_rout, cover, options_, &stats,
                        budget_exceeded, governor_.get());
    // A partially discovered CGM set must not rank mappings: if the stop
    // fired mid-discovery, abort here with the stats gathered so far.
    if (run.ShouldStop()) return aborted(stop_reason());
  }

  // ---- Candidate generation + validation -----------------------------------
  QreTrace trace;
  trace_ptr = &trace;
  MappingEnumerator mappings(db_, &norm_rout, &cover,
                             options_.use_cgm_ranking ? &cgms : nullptr,
                             &options_, budget_exceeded, governor_.get());
  ColumnMapping mapping;
  for (int m = 0; m < options_.max_mappings && mappings.Next(&mapping); ++m) {
    ++stats.mappings_tried;
    if (options_.collect_trace) {
      trace.mappings.push_back(mapping.ToString(*db_, norm_rout));
    }
    if (budget_exceeded()) return aborted(stop_reason());

    std::vector<Walk> walks;
    if (mapping.instances.size() > 1) {
      walks = DiscoverWalks(*db_, mapping, options_);
      stats.walks_discovered += walks.size();
      if (walks.empty()) continue;  // instances cannot be connected
    }

    Feedback feedback(walks.size());
    RankedComposer composer(db_, &mapping, &walks, &options_, &feedback,
                            budget_exceeded);

    if (options_.validation_threads > 1) {
      // ---- Parallel validation path --------------------------------------
      const int need = limit - static_cast<int>(answers.size());
      ParallelMappingResult pr = RunMappingParallel(
          db_, &norm_rout, &rout_set, &mapping, &walks, &options_, &feedback,
          &stats, walk_cache_.get(), budget_exceeded, &composer, need,
          governor_.get(), exec_policy);
      stats.candidates_pruned_dead += composer.sets_pruned_dead();
      stats.walk_sets_expanded += composer.sets_expanded();

      // Finalize in rank order. An outcome counts toward the answer only
      // while the rank prefix is complete (every lower rank finished
      // non-generating) — the rank barrier that makes the answer identical
      // to a serial run's.
      if (options_.collect_trace) {
        for (const auto& ro : pr.outcomes) {
          trace.candidates.push_back(QreTrace::Candidate{
              m, ro.cand.query.ToSql(*db_), ro.cand.dc, ro.cand.alpha_cost,
              ro.cancelled ? "cancelled"
                           : CandidateOutcomeToString(ro.outcome)});
        }
      }
      bool prefix_complete = true;
      uint64_t expected_seq = 0;
      for (const auto& ro : pr.outcomes) {
        if (ro.seq != expected_seq) prefix_complete = false;
        expected_seq = ro.seq + 1;
        if (!prefix_complete) break;
        if (ro.cancelled || ro.outcome == CandidateOutcome::kBudgetExhausted) {
          prefix_complete = false;
          break;
        }
        if (ro.outcome == CandidateOutcome::kGenerating &&
            static_cast<int>(answers.size()) < limit) {
          QreAnswer a;
          a.found = true;
          a.query = ro.cand.query;
          a.sql = ro.cand.query.ToSql(*db_);
          a.num_instances = ro.cand.query.num_instances();
          a.num_joins = ro.cand.query.joins().size();
          a.trace = trace;
          a.stats = stats;
          attach_run_stats(&a);
          publish(std::move(a));
          // Fault site "answer-found": fires once per accepted answer, so a
          // cancel@n schedule can truncate ReverseAll() after exactly n
          // answers (the truncation-semantics regression tests).
          governor_->FaultPoint("answer-found");
        }
      }
      if (static_cast<int>(answers.size()) >= limit) return answers;
      if (pr.budget_exhausted || !prefix_complete) {
        return aborted(stop_reason());
      }
      continue;  // next mapping
    }

    // ---- Serial validation path (validation_threads == 1) ----------------
    Validator validator(db_, &norm_rout, &rout_set, &mapping, &walks,
                        &options_, &feedback, &stats, walk_cache_.get(),
                        budget_exceeded, exec_policy);

    CandidateQuery candidate;
    uint64_t tried = 0;
    while (tried < options_.max_candidates_per_mapping &&
           composer.Next(&candidate)) {
      ++tried;
      ++stats.candidates_generated;
      if (budget_exceeded()) return aborted(stop_reason());

      CandidateOutcome outcome = validator.Validate(candidate);
      if (outcome != CandidateOutcome::kBudgetExhausted) {
        ++stats.candidates_validated;
      }
      if (options_.collect_trace) {
        trace.candidates.push_back(QreTrace::Candidate{
            m, candidate.query.ToSql(*db_), candidate.dc, candidate.alpha_cost,
            CandidateOutcomeToString(outcome)});
      }
      switch (outcome) {
        case CandidateOutcome::kGenerating: {
          QreAnswer a;
          a.found = true;
          a.query = candidate.query;
          a.sql = candidate.query.ToSql(*db_);
          a.num_instances = candidate.query.num_instances();
          a.num_joins = candidate.query.joins().size();
          // Fold the composer counters in before snapshotting the stats.
          a.trace = trace;
          a.stats = stats;
          a.stats.candidates_pruned_dead += composer.sets_pruned_dead();
          a.stats.walk_sets_expanded += composer.sets_expanded();
          attach_run_stats(&a);
          publish(std::move(a));
          // See the parallel path: per-answer fault site for truncation
          // tests.
          governor_->FaultPoint("answer-found");
          if (static_cast<int>(answers.size()) >= limit) {
            return answers;
          }
          break;
        }
        case CandidateOutcome::kMissingTuples:
          if (options_.use_feedback_pruning && !candidate.walk_ids.empty()) {
            feedback.AddDeadSet(candidate.walk_ids);
          }
          break;
        case CandidateOutcome::kIncoherentWalk:
          // The validator already memoized the incoherent walk in feedback.
          break;
        case CandidateOutcome::kExtraTuples:
        case CandidateOutcome::kError:
          break;  // only this candidate is dismissed
        case CandidateOutcome::kBudgetExhausted:
          // Validate() only reports this for a *global* stop (candidate-local
          // memory refusals surface as kError and dismiss one candidate).
          return aborted(stop_reason());
      }
    }
    stats.candidates_pruned_dead += composer.sets_pruned_dead();
    stats.walk_sets_expanded += composer.sets_expanded();
  }

  // A stop that fired between candidates (e.g. an injected cancel right
  // after an accepted answer) still truncates: report it before returning a
  // below-limit answer set as complete.
  if (run.ShouldStop()) return aborted(stop_reason());
  if (!answers.empty()) return answers;
  return aborted("search space exhausted without finding a generating query");
}

}  // namespace fastqre
