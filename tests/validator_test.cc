// Unit tests for the Query Validation module (Section 4.5): probing,
// indirect coherence, progressive evaluation, outcome classification, the
// full check's order (extras walk first, the all-tuple probe classifying its
// dismissals), and a classification property test against brute force over
// random databases.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "brute_force.h"
#include "common/resource_governor.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/builder.h"
#include "engine/executor.h"
#include "engine/subplan_cache.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/composer.h"
#include "qre/fastqre.h"
#include "qre/mapping.h"
#include "qre/validator.h"

namespace fastqre {
namespace {

// Validation fixture around the L02 (supplier ⋈ nation) workload entry.
struct ValidatorFixture {
  Database db;
  Table rout;
  TupleSet rout_set;
  QreOptions opts;
  QreStats stats;
  ColumnCover cover;
  CgmSet cgms;
  ColumnMapping mapping;
  std::vector<Walk> walks;
  std::unique_ptr<Feedback> feedback;

  explicit ValidatorFixture(QreOptions o = QreOptions(), int ladder_index = 1)
      : db(BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie()),
        rout("tmp", db.dictionary()),
        opts(o) {
    auto workload = StandardTpchWorkload(db).ValueOrDie();
    rout = std::move(workload[ladder_index].rout);
    rout_set = TableToTupleSet(rout);
    cover = ComputeColumnCover(db, rout, opts, &stats);
    cgms = DiscoverCgms(db, rout, cover, opts, &stats);
    MappingEnumerator e(&db, &rout, &cover, &cgms, &opts);
    EXPECT_TRUE(e.Next(&mapping));
    walks = DiscoverWalks(db, mapping, opts);
    feedback = std::make_unique<Feedback>(walks.size());
  }

  // Appends a row of a value no database column holds, which no query can
  // generate.
  void AppendAbsentRow() {
    const ValueId absent = db.dictionary()->Intern(Value("no-such-value"));
    rout.AppendRowIds(std::vector<ValueId>(rout.num_columns(), absent));
    rout_set = TableToTupleSet(rout);
  }

  Validator MakeValidator(std::function<bool()> budget = {}) {
    return Validator(&db, &rout, &rout_set, &mapping, &walks, &opts,
                     feedback.get(), &stats, /*walk_cache=*/nullptr,
                     std::move(budget));
  }

  // The candidate whose walk set is the single direct supplier-nation edge
  // (the generating query for L02).
  CandidateQuery DirectCandidate() {
    RankedComposer composer(&db, &mapping, &walks, &opts, feedback.get());
    CandidateQuery c;
    while (composer.Next(&c)) {
      if (c.walk_ids.size() == 1 && walks[c.walk_ids[0]].length() == 1) {
        return c;
      }
    }
    ADD_FAILURE() << "no direct candidate found";
    return c;
  }

  // A candidate with an extra restricting walk (true subset of R_out in
  // general, equal under fk integrity... pick a long walk to vary).
  CandidateQuery CandidateWithWalks(std::vector<int> ids) {
    CandidateQuery c;
    c.walk_ids = ids;
    std::vector<const Walk*> group;
    for (int id : ids) group.push_back(&walks[id]);
    c.query = ComposeQueryFromWalks(db, mapping, group);
    c.dc = 0;
    for (int id : ids) c.dc += walks[id].length();
    return c;
  }
};

TEST(Validator, AcceptsGeneratingQuery) {
  ValidatorFixture f;
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kGenerating);
}

TEST(Validator, RejectsWrongProjectionWithExtraTuples) {
  // Mutate R_out: drop one row. The true query now produces an extra tuple.
  ValidatorFixture f;
  Table smaller("smaller", f.db.dictionary());
  for (size_t c = 0; c < f.rout.num_columns(); ++c) {
    ASSERT_TRUE(
        smaller.AddColumn(f.rout.column(c).name(), f.rout.column(c).type())
            .ok());
  }
  for (RowId r = 1; r < f.rout.num_rows(); ++r) {
    smaller.AppendRowIds(f.rout.RowIds(r));
  }
  CandidateQuery cand = f.DirectCandidate();
  f.rout = std::move(smaller);
  f.rout_set = TableToTupleSet(f.rout);
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kExtraTuples);
}

TEST(Validator, RejectsMissingTuples) {
  // Add a bogus row to R_out that no query can produce: every candidate
  // must fail with missing tuples (probe catches it first).
  ValidatorFixture f;
  f.AppendAbsentRow();
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kMissingTuples);
  EXPECT_GT(f.stats.candidates_dismissed_probe, 0u);
}

TEST(Validator, MissingTuplesDetectedWithoutProbingToo) {
  // Disable both quick-dismissal layers so the *full streaming check* must
  // classify the failure (with indirect coherence on, the doctored tuple
  // would be caught earlier as an incoherent walk).
  QreOptions opts;
  opts.use_probing = false;
  opts.use_indirect_coherence = false;
  ValidatorFixture f(opts);
  f.AppendAbsentRow();
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kMissingTuples);
  EXPECT_EQ(f.stats.candidates_dismissed_probe, 0u);
}

TEST(Validator, NonProgressiveBlockModeAgrees) {
  for (bool progressive : {true, false}) {
    QreOptions opts;
    opts.use_probing = false;
    opts.use_progressive_validation = progressive;
    ValidatorFixture f(opts);
    Validator v = f.MakeValidator();
    EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kGenerating)
        << "progressive=" << progressive;
  }
}

TEST(Validator, IncoherentWalkDetectedAndMemoized) {
  // L05 fixture: supplier-part pairs via PS. A walk supplier-nation-... can
  // never reach part, so use a mapping-compatible wrong walk instead: pick
  // any candidate whose walks include a non-generating path and check the
  // walk-incoherence machinery via a doctored R_out.
  ValidatorFixture f;
  // Doctor R_out: permute the n_name column so supplier-nation pairs no
  // longer hold; the direct walk becomes incoherent.
  Table doctored("doctored", f.db.dictionary());
  for (size_t c = 0; c < f.rout.num_columns(); ++c) {
    ASSERT_TRUE(
        doctored.AddColumn(f.rout.column(c).name(), f.rout.column(c).type())
            .ok());
  }
  const RowId n = f.rout.num_rows();
  for (RowId r = 0; r < n; ++r) {
    doctored.AppendRowIds(
        {f.rout.column(0).at(r), f.rout.column(1).at((r + 1) % n)});
  }
  f.rout = std::move(doctored);
  f.rout_set = TableToTupleSet(f.rout);
  QreOptions opts = f.opts;
  opts.use_probing = false;  // let the coherence check do the work
  f.opts = opts;
  Validator v = f.MakeValidator();
  CandidateQuery cand = f.DirectCandidate();
  CandidateOutcome outcome = v.Validate(cand);
  EXPECT_EQ(outcome, CandidateOutcome::kIncoherentWalk);
  // Memoized in feedback: the walk is now known-incoherent.
  ASSERT_TRUE(f.feedback->WalkCoherence(cand.walk_ids[0]).has_value());
  EXPECT_FALSE(*f.feedback->WalkCoherence(cand.walk_ids[0]));
  EXPECT_TRUE(f.feedback->IsDead(cand.walk_ids));
}

TEST(Validator, InterruptedCoherenceIsNotAnIncoherentWalk) {
  // A stop that lands mid-check leaves the walk unproven: the candidate is
  // cut short, not dismissed, and no verdict is memoized (DESIGN.md §8).
  QreOptions opts;
  opts.use_probing = false;
  ValidatorFixture f(opts);
  const CandidateQuery cand = f.DirectCandidate();
  int polls = 0;
  Validator v = f.MakeValidator([&polls] { return polls++ > 0; });
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kBudgetExhausted);
  EXPECT_GT(polls, 1);
  EXPECT_EQ(f.stats.candidates_dismissed_walk, 0u);
  EXPECT_FALSE(f.feedback->WalkCoherence(cand.walk_ids[0]).has_value());
}

TEST(Validator, SupersetAcceptsRestrictingSubsetOutput) {
  // Superset variant: a query whose result strictly contains R_out is
  // accepted. Take L02's generating query but drop rows from R_out.
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  ValidatorFixture f(opts);
  Table smaller("smaller", f.db.dictionary());
  for (size_t c = 0; c < f.rout.num_columns(); ++c) {
    ASSERT_TRUE(
        smaller.AddColumn(f.rout.column(c).name(), f.rout.column(c).type())
            .ok());
  }
  for (RowId r = 0; r + 1 < f.rout.num_rows(); r += 2) {
    smaller.AppendRowIds(f.rout.RowIds(r));
  }
  CandidateQuery cand = f.DirectCandidate();
  f.rout = std::move(smaller);
  f.rout_set = TableToTupleSet(f.rout);
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kGenerating);
}

TEST(Validator, SupersetStillRejectsMissing) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  ValidatorFixture f(opts);
  f.AppendAbsentRow();
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kMissingTuples);
}

TEST(Validator, SupersetWithoutProbingStreams) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  opts.use_probing = false;
  ValidatorFixture f(opts);
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kGenerating);
}

TEST(Validator, BudgetExhaustionShortCircuits) {
  ValidatorFixture f;
  Validator v = f.MakeValidator([] { return true; });  // budget already gone
  EXPECT_EQ(v.Validate(f.DirectCandidate()),
            CandidateOutcome::kBudgetExhausted);
}

TEST(Validator, StatsCountFullValidations) {
  ValidatorFixture f;
  Validator v = f.MakeValidator();
  uint64_t before = f.stats.full_validations;
  ASSERT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kGenerating);
  EXPECT_EQ(f.stats.full_validations, before + 1);
  EXPECT_GT(f.stats.validation_rows, 0u);
}

// ---- Edge cases: degenerate R_out shapes -----------------------------------

// Makes an empty table with the same schema as `like`.
Table EmptySchemaCopy(const Table& like, const std::shared_ptr<Dictionary>& d) {
  Table t("empty", d);
  for (size_t c = 0; c < like.num_columns(); ++c) {
    EXPECT_TRUE(t.AddColumn(like.column(c).name(), like.column(c).type()).ok());
  }
  return t;
}

TEST(Validator, EmptyRoutExactRejectsNonEmptyQuery) {
  // Exact variant with R_out = ∅: any query producing a row has extra tuples.
  ValidatorFixture f;
  CandidateQuery cand = f.DirectCandidate();
  f.rout = EmptySchemaCopy(f.rout, f.db.dictionary());
  f.rout_set = TableToTupleSet(f.rout);
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kExtraTuples);
}

TEST(Validator, EmptyRoutSupersetAcceptsAnyQuery) {
  // Superset variant with R_out = ∅: Q(D) ⊇ ∅ holds vacuously.
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  ValidatorFixture f(opts);
  CandidateQuery cand = f.DirectCandidate();
  f.rout = EmptySchemaCopy(f.rout, f.db.dictionary());
  f.rout_set = TableToTupleSet(f.rout);
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kGenerating);
}

TEST(Validator, SingleRowRoutClassifiedPerVariant) {
  // R_out shrunk to one genuine row: the generating query now over-produces
  // — extra tuples under exact, still generating under superset.
  for (auto variant : {QreVariant::kExact, QreVariant::kSuperset}) {
    QreOptions opts;
    opts.variant = variant;
    ValidatorFixture f(opts);
    CandidateQuery cand = f.DirectCandidate();
    Table single = EmptySchemaCopy(f.rout, f.db.dictionary());
    single.AppendRowIds(f.rout.RowIds(0));
    f.rout = std::move(single);
    f.rout_set = TableToTupleSet(f.rout);
    Validator v = f.MakeValidator();
    EXPECT_EQ(v.Validate(cand), variant == QreVariant::kExact
                                    ? CandidateOutcome::kExtraTuples
                                    : CandidateOutcome::kGenerating);
  }
}

TEST(Validator, ReverseRejectsEmptyRoutAsInvalidInput) {
  ValidatorFixture f;
  Table empty = EmptySchemaCopy(f.rout, f.db.dictionary());
  FastQre engine(&f.db);
  auto r = engine.Reverse(empty);
  EXPECT_FALSE(r.ok());
}

TEST(Validator, AbsentValueFalsifiedWithoutExecutingAnyQuery) {
  // An R_out value that exists in no database column falsifies containment
  // at the column-cover level: the search must conclude without generating
  // or executing a single candidate query, in both variants.
  for (auto variant : {QreVariant::kExact, QreVariant::kSuperset}) {
    ValidatorFixture f;
    std::vector<ValueId> bogus(f.rout.num_columns());
    for (size_t c = 0; c < f.rout.num_columns(); ++c) {
      bogus[c] = f.db.dictionary()->Intern(Value("value-in-no-column"));
    }
    f.rout.AppendRowIds(bogus);
    QreOptions opts;
    opts.variant = variant;
    FastQre engine(&f.db, opts);
    QreAnswer a = engine.Reverse(f.rout).ValueOrDie();
    EXPECT_FALSE(a.found);
    EXPECT_EQ(static_cast<uint64_t>(a.stats.candidates_generated), 0u);
    EXPECT_EQ(static_cast<uint64_t>(a.stats.validation_rows), 0u);
    EXPECT_EQ(static_cast<uint64_t>(a.stats.full_validations), 0u);
  }
}

TEST(Validator, OutcomeToStringCoversAll) {
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kGenerating),
               "generating");
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kMissingTuples),
               "missing-tuples");
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kExtraTuples),
               "extra-tuples");
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kIncoherentWalk),
               "incoherent-walk");
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kBudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(CandidateOutcomeToString(CandidateOutcome::kError), "error");
}

// ---- Full-check order: the extras walk first, the probe classifies --------

// Options under which the full check alone classifies a candidate: no
// sampled probes, no coherence checks.
QreOptions FullCheckOnly() {
  QreOptions opts;
  opts.probe_tuples = 0;
  opts.use_indirect_coherence = false;
  return opts;
}

TEST(Validator, ExactAcceptanceIsDecidedByTheWalkAlone) {
  // A walk that meets no tuple outside R_out has emitted all of Q(D), so
  // |Q(D)| = |R_out| accepts without probing a single R_out tuple.
  ValidatorFixture f;
  Validator v = f.MakeValidator();
  ASSERT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kGenerating);
  EXPECT_EQ(f.stats.full_validations, 1u);
  EXPECT_GT(f.stats.fullscan_rows, 0u);
  EXPECT_EQ(f.stats.alltuple_rows, 0u);
}

TEST(Validator, ShortWalkResultIsMissingTuplesWithoutProbing) {
  // Q(D) ⊊ R_out: the walk meets no extra tuple but returns one tuple too
  // few, and that count alone proves a tuple missing.
  ValidatorFixture f(FullCheckOnly());
  f.AppendAbsentRow();
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(f.DirectCandidate()), CandidateOutcome::kMissingTuples);
  EXPECT_EQ(f.stats.full_validations, 1u);
  EXPECT_GT(f.stats.fullscan_rows, 0u);
  EXPECT_EQ(f.stats.alltuple_rows, 0u);
}

TEST(Validator, MissingTuplesOutrankTheWalksExtraTuple) {
  // R_out minus a generated row plus an ungenerable one: the walk stops at
  // the extra tuple, and the probe that classifies the dismissal finds the
  // missing one, which wins.
  ValidatorFixture f(FullCheckOnly());
  CandidateQuery cand = f.DirectCandidate();
  Table doctored = EmptySchemaCopy(f.rout, f.db.dictionary());
  for (RowId r = 1; r < f.rout.num_rows(); ++r) {
    doctored.AppendRowIds(f.rout.RowIds(r));
  }
  f.rout = std::move(doctored);
  f.AppendAbsentRow();
  Validator v = f.MakeValidator();
  EXPECT_EQ(v.Validate(cand), CandidateOutcome::kMissingTuples);
  EXPECT_GT(f.stats.fullscan_rows, 0u);
  EXPECT_GT(f.stats.alltuple_rows, 0u);
}

// ---- Classification against brute force ------------------------------------

// `like`'s schema holding `rows`, in their order.
Table TableOf(const Table& like, const std::shared_ptr<Dictionary>& d,
              const TupleSet& rows) {
  Table t = EmptySchemaCopy(like, d);
  for (std::span<const ValueId> row : rows) {
    t.AppendRowIds(std::vector<ValueId>(row.begin(), row.end()));
  }
  return t;
}

// `set` without its i-th tuple (insertion order).
TupleSet Without(const TupleSet& set, size_t skip) {
  TupleSet out(set.width());
  size_t i = 0;
  for (auto t : set) {
    if (i++ != skip) out.insert(t);
  }
  return out;
}

// `set` plus a tuple of `value` in every column.
TupleSet WithRow(const TupleSet& set, ValueId value) {
  TupleSet out = set;
  out.insert(std::vector<ValueId>(set.width(), value));
  return out;
}

class ValidatorClassification : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValidatorClassification, FullCheckAgreesWithBruteForce) {
  // The generating query of a random CPJ workload, validated against R_out =
  // its result, minus one row, plus an ungenerable row, and both. With the
  // full check alone deciding, the verdict must be brute force's: missing
  // tuples if R_out ⊄ Q(D), else (exact only) extra tuples if
  // Q(D) ⊄ R_out, else generating.
  const uint64_t seed = GetParam();
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  Database db = BuildRandomDb(db_opts).ValueOrDie();
  const ValueId absent = db.dictionary()->Intern(Value("no-such-value"));
  Rng rng(seed * 7919 + 5);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 3);
  q_opts.num_projections = 2;
  // One cache across every case of the seed, so later cases resume from
  // prefixes earlier ones stored.
  auto governor = std::make_shared<ResourceGovernor>(0);
  SubplanCache shared_cache(64 << 20, /*admission=*/0, governor);
  SubplanCache* const caches[] = {nullptr, &shared_cache};
  int queries = 0;
  for (int trial = 0; trial < 3; ++trial) {
    q_opts.project_every_instance = trial % 2 == 0;
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    ++queries;
    CandidateQuery cand;
    cand.query = wq->query;
    const TupleSet qd = BruteForce(db, cand.query);
    ASSERT_FALSE(qd.empty());
    const TupleSet minus = Without(qd, qd.size() / 2);
    std::vector<std::pair<std::string, TupleSet>> routs;
    routs.emplace_back("result", qd);
    routs.emplace_back("minus-one", minus);
    routs.emplace_back("plus-absent", WithRow(qd, absent));
    routs.emplace_back("both", WithRow(minus, absent));
    for (const auto& [rout_name, rout_rows] : routs) {
      const Table rout = TableOf(wq->rout, db.dictionary(), rout_rows);
      const TupleSet rout_set = TableToTupleSet(rout);
      for (QreVariant variant : {QreVariant::kExact, QreVariant::kSuperset}) {
        const char* variant_name =
            variant == QreVariant::kExact ? "exact" : "superset";
        CandidateOutcome want = CandidateOutcome::kGenerating;
        if (!IsSubsetOf(rout_set, qd)) {
          want = CandidateOutcome::kMissingTuples;
        } else if (variant == QreVariant::kExact && !IsSubsetOf(qd, rout_set)) {
          want = CandidateOutcome::kExtraTuples;
        }
        for (SubplanCache* cache : caches) {
          const char* cache_name = cache != nullptr ? "cache" : "no-cache";
          for (bool sip : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                         std::to_string(trial) + " " + rout_name + " " +
                         variant_name + " " + cache_name + " sip " +
                         std::to_string(sip) + "\n" + cand.query.ToSql(db));
            QreOptions opts = FullCheckOnly();
            opts.variant = variant;
            ExecPolicy policy;
            policy.use_sip = sip;
            policy.subplan_cache = cache;
            policy.governor = governor;
            const ColumnMapping mapping;
            const std::vector<Walk> walks;
            Feedback feedback(0);
            QreStats stats;
            Validator v(&db, &rout, &rout_set, &mapping, &walks, &opts,
                        &feedback, &stats, /*walk_cache=*/nullptr,
                        /*budget_exceeded=*/{}, policy);
            EXPECT_EQ(v.Validate(cand), want);
            EXPECT_EQ(stats.full_validations, 1u);
          }
        }
      }
    }
  }
  EXPECT_GT(queries, 0) << "no random query for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorClassification,
                         ::testing::Range<uint64_t>(1, 21));

// ---- Coherence against brute force -----------------------------------------

// A small random database and the results of random CPJ queries over it.
struct CoherenceSeed {
  Database db;
  std::vector<WorkloadQuery> queries;
};

CoherenceSeed MakeCoherenceSeed(uint64_t seed) {
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 20;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  CoherenceSeed out{BuildRandomDb(db_opts).ValueOrDie(), {}};
  Rng rng(seed * 104729 + 11);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 3;
  for (int trial = 0; trial < 2; ++trial) {
    auto wq = RandomCpjQuery(out.db, &rng, q_opts);
    if (wq.ok()) out.queries.push_back(std::move(wq).ValueOrDie());
  }
  return out;
}

// The column mapping of a query's result: one instance per projected query
// instance, in first-projection order.
ColumnMapping MappingOf(const PJQuery& q) {
  ColumnMapping m;
  std::vector<int> index(q.num_instances(), -1);
  for (ColumnId c = 0; c < q.projections().size(); ++c) {
    const auto& p = q.projections()[c];
    if (index[p.instance] < 0) {
      index[p.instance] = static_cast<int>(m.instances.size());
      m.instances.emplace_back();
      m.instances.back().table = q.instance_table(p.instance);
    }
    m.instances[index[p.instance]].columns.emplace_back(c, p.column);
    m.slots.emplace_back(index[p.instance], p.column);
  }
  return m;
}

// Coherence checks with probing off, so the check runs before the full
// check and its verdict is memoized.
QreOptions CoherenceFirst() {
  QreOptions opts;
  opts.use_probing = false;
  opts.max_walk_length = 3;
  return opts;
}

// Brute force's coherence verdict: pi(R_out) on the walk's endpoint columns
// is contained in the walk's join over the mapping cut down to the walk's
// two endpoints.
bool BruteForceCoherent(const Database& db, const Table& rout,
                        const ColumnMapping& mapping, const Walk& walk) {
  ColumnMapping cut;
  cut.instances = {mapping.instances[walk.from_instance],
                   mapping.instances[walk.to_instance]};
  std::vector<ColumnId> out_cols;
  for (ColumnId c = 0; c < mapping.slots.size(); ++c) {
    const auto& [inst, db_col] = mapping.slots[c];
    if (inst != walk.from_instance && inst != walk.to_instance) continue;
    cut.slots.emplace_back(inst == walk.from_instance ? 0 : 1, db_col);
    out_cols.push_back(c);
  }
  Walk cut_walk = walk;
  cut_walk.from_instance = 0;
  cut_walk.to_instance = 1;
  const PJQuery q = ComposeQueryFromWalks(db, cut, {&cut_walk});
  return ProjectionSubsetOf(rout, out_cols, BruteForce(db, q));
}

// `rout` with column `col` rotated down by one row.
Table WithColumnRotated(const Table& rout, ColumnId col) {
  Table out = EmptySchemaCopy(rout, rout.dictionary());
  const RowId n = static_cast<RowId>(rout.num_rows());
  for (RowId r = 0; r < n; ++r) {
    std::vector<ValueId> row = rout.RowIds(r);
    row[col] = rout.column(col).at((r + 1) % n);
    out.AppendRowIds(row);
  }
  return out;
}

// A walk-cache budget below every walk relation (their two empty maps alone
// take more); at 4 KB these databases' relations, 0.7-1 KB, stay resident.
constexpr size_t kTinyWalkCacheBytes = 64;

class ValidatorCoherence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValidatorCoherence, CoherenceAgreesWithBruteForce) {
  // Every walk of length 1-3 between the instances of a random query's
  // mapping, against R_out = the query's result, and the result with one
  // column rotated. The memoized verdict must be brute force's in every
  // cache state: no cache (the chain is walked), a 64 MB cache that admits
  // on first use, the same cache warmed, and a budget below every relation
  // (served to the check but never resident).
  const uint64_t seed = GetParam();
  const CoherenceSeed cs = MakeCoherenceSeed(seed);
  ASSERT_FALSE(cs.queries.empty()) << "no random query for seed " << seed;
  const QreOptions opts = CoherenceFirst();
  int coherent = 0;
  int incoherent = 0;
  for (size_t q = 0; q < cs.queries.size(); ++q) {
    const WorkloadQuery& wq = cs.queries[q];
    const ColumnMapping mapping = MappingOf(wq.query);
    const std::vector<Walk> walks = DiscoverWalks(cs.db, mapping, opts);
    const Table rotated = WithColumnRotated(
        wq.rout, static_cast<ColumnId>(seed % wq.rout.num_columns()));
    for (const Table* rout : {&wq.rout, &rotated}) {
      const TupleSet rout_set = TableToTupleSet(*rout);
      for (size_t id = 0; id < walks.size(); ++id) {
        const Walk& walk = walks[id];
        const bool want = BruteForceCoherent(cs.db, *rout, mapping, walk);
        (want ? coherent : incoherent)++;
        CandidateQuery cand;
        cand.walk_ids = {static_cast<int>(id)};
        cand.query = ComposeQueryFromWalks(cs.db, mapping, {&walk});
        WalkCache cache(64 << 20, /*admission=*/0);
        WalkCache tiny(kTinyWalkCacheBytes, /*admission=*/0);
        const std::pair<const char*, WalkCache*> states[] = {
            {"no cache", nullptr},
            {"64 MB", &cache},
            {"64 MB warmed", &cache},
            {"tiny", &tiny},
        };
        for (const auto& [state, walk_cache] : states) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                       std::to_string(q) + " " + walk.ToString(cs.db) +
                       (rout == &rotated ? " rotated " : " result ") + state);
          Feedback feedback(walks.size());
          QreStats stats;
          Validator v(&cs.db, rout, &rout_set, &mapping, &walks, &opts,
                      &feedback, &stats, walk_cache);
          v.Validate(cand);
          const auto got = feedback.WalkCoherence(cand.walk_ids[0]);
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, want);
        }
        EXPECT_EQ(tiny.bytes(), 0u);
      }
    }
  }
  EXPECT_GT(coherent, 0);
  EXPECT_GT(incoherent, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorCoherence,
                         ::testing::Range<uint64_t>(1, 21));

TEST(Validator, CoherenceSeedsCoverWalkLengthsOneToThree) {
  // The brute-force comparison above checks walks of every length the
  // search discovers.
  std::set<int> lengths;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const CoherenceSeed cs = MakeCoherenceSeed(seed);
    for (const WorkloadQuery& wq : cs.queries) {
      for (const Walk& w :
           DiscoverWalks(cs.db, MappingOf(wq.query), CoherenceFirst())) {
        lengths.insert(w.length());
      }
    }
  }
  EXPECT_EQ(lengths, (std::set<int>{1, 2, 3}));
}

}  // namespace
}  // namespace fastqre
