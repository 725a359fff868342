#include "bench/qre/replay.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/resource_governor.h"
#include "engine/compare.h"
#include "engine/exec_policy.h"
#include "engine/subplan_cache.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/composer.h"
#include "qre/feedback.h"
#include "qre/mapping.h"
#include "qre/validator.h"
#include "qre/walk_cache.h"
#include "qre/walks.h"

namespace fastqre::benchqre {
namespace {

// The engine's R_out normalization (fastqre.cc): re-encode against the
// database dictionary and collapse duplicate rows.
Table NormalizeRout(const Database& db, const Table& rout) {
  Table out(rout.name(), db.dictionary());
  for (size_t c = 0; c < rout.num_columns(); ++c) {
    (void)out.AddColumn(rout.column(c).name(), rout.column(c).type());
  }
  const bool same_dict = rout.dictionary() == db.dictionary();
  TupleSet seen;
  seen.reserve(rout.num_rows());
  for (RowId r = 0; r < rout.num_rows(); ++r) {
    std::vector<ValueId> ids(rout.num_columns());
    if (same_dict) {
      ids = rout.RowIds(r);
    } else {
      for (size_t c = 0; c < rout.num_columns(); ++c) {
        ids[c] = db.dictionary()->Intern(
            rout.dictionary()->Get(rout.column(c).at(r)));
      }
    }
    if (seen.insert(ids).second) out.AppendRowIds(ids);
  }
  return out;
}

// Times one call into a layer and records it as a span of the current
// request. `ms` receives the span's duration.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, uint64_t request, const char* name,
            const char* layer, double* ms, double* covered)
      : recorder_(recorder),
        request_(request),
        name_(name),
        layer_(layer),
        ms_(ms),
        covered_(covered),
        start_ns_(recorder->NowNs()) {}

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    const int64_t dur = recorder_->NowNs() - start_ns_;
    *ms_ += static_cast<double>(dur) / 1e6;
    *covered_ += static_cast<double>(dur) / 1e6;
    recorder_->Add(
        Span{name_, layer_, request_, start_ns_, dur, std::string()});
  }

 private:
  SpanRecorder* recorder_;
  uint64_t request_;
  const char* name_;
  const char* layer_;
  double* ms_;
  double* covered_;
  int64_t start_ns_;
};

// Search counters the replay must reproduce exactly. Cache byte gauges and
// the governor's peak are left out: they are snapshots, not search work.
std::vector<std::pair<const char*, uint64_t>> SearchCounters(
    const QreStats& s) {
  return {{"cover_pairs_total", s.cover_pairs_total},
          {"cover_pairs_pruned", s.cover_pairs_pruned},
          {"cover_pairs_checked", s.cover_pairs_checked},
          {"cgm_candidates_checked", s.cgm_candidates_checked},
          {"num_cgms", s.num_cgms},
          {"mappings_tried", s.mappings_tried},
          {"walks_discovered", s.walks_discovered},
          {"candidates_generated", s.candidates_generated},
          {"candidates_validated", s.candidates_validated},
          {"walk_sets_expanded", s.walk_sets_expanded},
          {"candidates_pruned_dead", s.candidates_pruned_dead},
          {"candidates_dismissed_probe", s.candidates_dismissed_probe},
          {"candidates_dismissed_walk", s.candidates_dismissed_walk},
          {"walk_coherence_checks", s.walk_coherence_checks},
          {"full_validations", s.full_validations},
          {"validation_rows", s.validation_rows},
          {"probe_rows", s.probe_rows},
          {"coherence_rows", s.coherence_rows},
          {"alltuple_rows", s.alltuple_rows},
          {"fullscan_rows", s.fullscan_rows},
          {"sip_rows_skipped", s.sip_rows_skipped},
          {"walk_cache_hits", s.walk_cache_hits},
          {"walk_cache_misses", s.walk_cache_misses},
          {"subplan_cache_hits", s.subplan_cache_hits},
          {"subplan_cache_misses", s.subplan_cache_misses}};
}

}  // namespace

Result<std::vector<QreAnswer>> ReplayReverseAll(const Database& db,
                                                const Table& rout, int limit,
                                                const QreOptions& options,
                                                SpanRecorder* recorder,
                                                LayerTotals* totals) {
  if (options.validation_threads != 1 || options.intra_candidate_threads > 1) {
    return Status::InvalidArgument("the replay covers the serial path only");
  }
  if (rout.num_columns() == 0 || rout.num_rows() == 0 || limit < 1) {
    return Status::InvalidArgument("empty R_out or limit < 1");
  }
  const uint64_t request = recorder->NewRequest();
  const int64_t request_start = recorder->NowNs();
  double* covered = &totals->covered_ms;
  auto span = [&](const char* name, const char* layer, double* ms) {
    return std::make_unique<SpanScope>(recorder, request, name, layer, ms,
                                       covered);
  };

  // ---- Engine construction (FastQre's constructor) ------------------------
  auto init = span("engine_init", "qre.preprocess", &totals->engine_init_ms);
  auto cancel_token = std::make_shared<CancellationToken>();
  auto governor = std::make_shared<ResourceGovernor>(
      options.memory_budget_bytes, cancel_token, nullptr);
  std::shared_ptr<WalkCache> walk_cache;
  std::shared_ptr<SubplanCache> subplan_cache;
  if (options.walk_cache_budget_bytes > 0) {
    walk_cache = std::make_shared<WalkCache>(
        options.walk_cache_budget_bytes, options.walk_cache_admission,
        governor);
  }
  if (options.subplan_cache_budget_bytes > 0) {
    subplan_cache = std::make_shared<SubplanCache>(
        options.subplan_cache_budget_bytes, options.subplan_cache_admission,
        governor);
  }
  if (walk_cache != nullptr || subplan_cache != nullptr) {
    std::weak_ptr<WalkCache> wcache = walk_cache;
    std::weak_ptr<SubplanCache> scache = subplan_cache;
    governor->SetPressureHook([wcache, scache] {
      if (std::shared_ptr<WalkCache> c = wcache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
      if (std::shared_ptr<SubplanCache> c = scache.lock()) {
        c->ShrinkTo(c->budget_bytes() / 2);
      }
    });
  }
  db.AttachGovernor(governor);

  QreStats stats;
  RunControl run(options.time_budget_seconds, cancel_token.get(),
                 governor.get());
  auto budget_exceeded = [&run]() { return run.ShouldStop(); };
  auto stop_reason = [&run]() {
    std::string reason = run.reason();
    return reason.empty() ? std::string("time budget exceeded") : reason;
  };
  ExecPolicy exec_policy;
  exec_policy.batch_probes = options.use_batched_probes;
  exec_policy.intra_threads = std::max(1, options.intra_candidate_threads);
  exec_policy.morsel_size =
      static_cast<size_t>(std::max(1, options.morsel_size));
  exec_policy.intra_threshold =
      static_cast<size_t>(std::max(0, options.intra_row_threshold));
  exec_policy.use_sip = options.use_sip;
  exec_policy.subplan_cache = subplan_cache.get();
  exec_policy.governor = governor;
  init.reset();

  std::vector<QreAnswer> answers;
  auto attach_run_stats = [&](QreAnswer* a) {
    a->stats.walk_cache_bytes = walk_cache ? walk_cache->bytes() : 0;
    if (subplan_cache != nullptr) {
      a->stats.subplan_cache_hits = subplan_cache->hits();
      a->stats.subplan_cache_misses = subplan_cache->misses();
      a->stats.subplan_cache_evictions = subplan_cache->evictions();
      a->stats.subplan_cache_bytes = subplan_cache->bytes();
    }
    a->stats.peak_tracked_bytes = governor->peak_tracked_bytes();
    a->stats.degradation_events = governor->degradation_events();
    a->stats.cancelled = run.cause() == StopCause::kCancelled;
    a->stats.total_seconds = run.ElapsedSeconds();
  };
  auto aborted = [&](const std::string& reason) {
    auto s = span("answer", "qre.validate", &totals->answer_ms);
    QreAnswer a;
    a.found = false;
    a.failure_reason = reason;
    a.stats = stats;
    attach_run_stats(&a);
    answers.push_back(std::move(a));
  };
  auto accept = [&](const CandidateQuery& cand,
                    const RankedComposer& composer) {
    auto s = span("answer", "qre.validate", &totals->answer_ms);
    QreAnswer a;
    a.found = true;
    a.query = cand.query;
    a.sql = cand.query.ToSql(db);
    a.num_instances = cand.query.num_instances();
    a.num_joins = cand.query.joins().size();
    a.stats = stats;
    a.stats.candidates_pruned_dead += composer.sets_pruned_dead();
    a.stats.walk_sets_expanded += composer.sets_expanded();
    attach_run_stats(&a);
    answers.push_back(std::move(a));
  };

  // The search, statement for statement the serial path of ReverseAll;
  // `answers` is final when it returns.
  auto search = [&]() {
    auto s = span("rout_set", "qre.preprocess", &totals->rout_set_ms);
    const Table norm_rout = NormalizeRout(db, rout);
    const TupleSet rout_set = TableToTupleSet(norm_rout, budget_exceeded);
    s.reset();
    if (run.ShouldStop()) return aborted(stop_reason());

    s = span("cover", "qre.preprocess", &totals->cover_ms);
    const ColumnCover cover =
        ComputeColumnCover(db, norm_rout, options, &stats);
    s.reset();
    if (cover.HasEmptyCover()) {
      return aborted(
          "some R_out column is contained in no database column; no PJ "
          "query can generate R_out");
    }
    CgmSet cgms;
    if (options.use_cgm_ranking) {
      s = span("cgm", "qre.preprocess", &totals->cgm_ms);
      cgms = DiscoverCgms(db, norm_rout, cover, options, &stats,
                          budget_exceeded, governor.get());
      s.reset();
      if (run.ShouldStop()) return aborted(stop_reason());
    }

    s = span("mapping", "qre.generate", &totals->mapping_ms);
    MappingEnumerator mappings(&db, &norm_rout, &cover,
                               options.use_cgm_ranking ? &cgms : nullptr,
                               &options, budget_exceeded, governor.get());
    s.reset();
    ColumnMapping mapping;
    for (int m = 0; m < options.max_mappings; ++m) {
      s = span("mapping", "qre.generate", &totals->mapping_ms);
      const bool more = mappings.Next(&mapping);
      s.reset();
      if (!more) break;
      ++stats.mappings_tried;
      if (budget_exceeded()) return aborted(stop_reason());

      std::vector<Walk> walks;
      if (mapping.instances.size() > 1) {
        s = span("walks", "qre.generate", &totals->walks_ms);
        walks = DiscoverWalks(db, mapping, options);
        s.reset();
        stats.walks_discovered += walks.size();
        if (walks.empty()) continue;
      }

      s = span("compose", "qre.generate", &totals->compose_ms);
      Feedback feedback(walks.size());
      RankedComposer composer(&db, &mapping, &walks, &options, &feedback,
                              budget_exceeded);
      Validator validator(&db, &norm_rout, &rout_set, &mapping, &walks,
                          &options, &feedback, &stats, walk_cache.get(),
                          budget_exceeded, exec_policy);
      s.reset();

      CandidateQuery candidate;
      uint64_t tried = 0;
      while (tried < options.max_candidates_per_mapping) {
        s = span("compose", "qre.generate", &totals->compose_ms);
        const bool next = composer.Next(&candidate);
        s.reset();
        if (!next) break;
        ++tried;
        ++stats.candidates_generated;
        if (budget_exceeded()) return aborted(stop_reason());

        // Validate spans are timed by hand: their duration also feeds the
        // accepted split, known only after the call.
        const uint64_t rows_before = stats.validation_rows;
        const int64_t start = recorder->NowNs();
        const CandidateOutcome outcome = validator.Validate(candidate);
        const int64_t dur = recorder->NowNs() - start;
        const double ms = static_cast<double>(dur) / 1e6;
        recorder->Add(Span{
            "validate", "qre.validate", request, start, dur,
            std::string("\"verdict\":\"") +
                CandidateOutcomeToString(outcome) + "\",\"rows\":" +
                std::to_string(stats.validation_rows - rows_before)});
        totals->validate_ms += ms;
        totals->covered_ms += ms;
        ++totals->validate_calls;
        if (outcome == CandidateOutcome::kGenerating) {
          ++totals->validate_accepted;
          totals->validate_accepted_ms += ms;
        }
        if (outcome != CandidateOutcome::kBudgetExhausted) {
          ++stats.candidates_validated;
        }
        switch (outcome) {
          case CandidateOutcome::kGenerating:
            accept(candidate, composer);
            if (static_cast<int>(answers.size()) >= limit) return;
            break;
          case CandidateOutcome::kMissingTuples:
            if (options.use_feedback_pruning && !candidate.walk_ids.empty()) {
              feedback.AddDeadSet(candidate.walk_ids);
            }
            break;
          case CandidateOutcome::kIncoherentWalk:
          case CandidateOutcome::kExtraTuples:
          case CandidateOutcome::kError:
            break;
          case CandidateOutcome::kBudgetExhausted:
            return aborted(stop_reason());
        }
      }
      stats.candidates_pruned_dead += composer.sets_pruned_dead();
      stats.walk_sets_expanded += composer.sets_expanded();
    }
    if (run.ShouldStop()) return aborted(stop_reason());
    if (!answers.empty()) return;
    aborted("search space exhausted without finding a generating query");
  };
  search();
  db.DetachGovernor(governor.get());

  const int64_t request_ns = recorder->NowNs() - request_start;
  recorder->Add(Span{"request", "request", request, request_start, request_ns,
                     "\"answers\":" + std::to_string(answers.size())});
  const QreStats& last = answers.back().stats;
  totals->stats.Accumulate(last);
  totals->max_walk_cache_bytes =
      std::max<uint64_t>(totals->max_walk_cache_bytes, last.walk_cache_bytes);
  totals->max_subplan_cache_bytes = std::max<uint64_t>(
      totals->max_subplan_cache_bytes, last.subplan_cache_bytes);
  return answers;
}

std::string SameSearch(const std::vector<QreAnswer>& engine,
                       const std::vector<QreAnswer>& replay) {
  if (engine.size() != replay.size()) {
    return "answer count " + std::to_string(engine.size()) + " vs " +
           std::to_string(replay.size());
  }
  for (size_t i = 0; i < engine.size(); ++i) {
    const QreAnswer& e = engine[i];
    const QreAnswer& r = replay[i];
    if (e.found != r.found || e.sql != r.sql ||
        e.failure_reason != r.failure_reason) {
      return "answer " + std::to_string(i) + " differs: " + e.sql + " vs " +
             r.sql;
    }
    const auto ec = SearchCounters(e.stats);
    const auto rc = SearchCounters(r.stats);
    for (size_t k = 0; k < ec.size(); ++k) {
      if (ec[k].second != rc[k].second) {
        return "answer " + std::to_string(i) + ": " + ec[k].first + " " +
               std::to_string(ec[k].second) + " vs " +
               std::to_string(rc[k].second);
      }
    }
  }
  return "";
}

}  // namespace fastqre::benchqre
