// End-to-end tests of the FastQre driver: both QRE variants, answer
// enumeration, option ablations, input validation, budgets, CSV ingestion.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/naive.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/builder.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

class FastQreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
  }

  void ExpectRegenerates(const QreAnswer& answer, const Table& rout) {
    ASSERT_TRUE(answer.found) << answer.failure_reason;
    Table regen = ExecuteToTable(db_, answer.query, "regen").ValueOrDie();
    EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(rout)) << answer.sql;
  }

  Database db_;
  std::vector<WorkloadQuery> workload_;
};

TEST_F(FastQreTest, InputValidation) {
  FastQre engine(&db_);
  Table empty_cols("e", db_.dictionary());
  EXPECT_TRUE(engine.Reverse(empty_cols).status().IsInvalidArgument());
  Table no_rows("n", db_.dictionary());
  ASSERT_TRUE(no_rows.AddColumn("a", ValueType::kInt64).ok());
  EXPECT_TRUE(engine.Reverse(no_rows).status().IsInvalidArgument());
  EXPECT_TRUE(engine.ReverseAll(workload_[0].rout, 0).status()
                  .IsInvalidArgument());
}

TEST_F(FastQreTest, UncoverableColumnFailsFast) {
  FastQre engine(&db_);
  Table rout("r", db_.dictionary());
  ASSERT_TRUE(rout.AddColumn("a", ValueType::kString).ok());
  ASSERT_TRUE(rout.AppendRow({Value("value-not-in-tpch")}).ok());
  QreAnswer a = engine.Reverse(rout).ValueOrDie();
  EXPECT_FALSE(a.found);
  EXPECT_NE(a.failure_reason.find("no PJ query"), std::string::npos);
}

TEST_F(FastQreTest, RoutWithForeignDictionaryIsReencoded) {
  // Build R_out against a *different* dictionary (as a CSV load into a
  // fresh dictionary would) and check Reverse still works.
  const Table& src = workload_[1].rout;
  auto other_dict = std::make_shared<Dictionary>();
  Table foreign("foreign", other_dict);
  for (size_t c = 0; c < src.num_columns(); ++c) {
    ASSERT_TRUE(
        foreign.AddColumn(src.column(c).name(), src.column(c).type()).ok());
  }
  for (RowId r = 0; r < src.num_rows(); ++r) {
    ASSERT_TRUE(foreign.AppendRow(src.RowValues(r)).ok());
  }
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(foreign).ValueOrDie();
  ExpectRegenerates(a, src);
}

TEST_F(FastQreTest, DuplicateRoutRowsAreCollapsed) {
  const Table& src = workload_[0].rout;
  Table dup("dup", db_.dictionary());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    ASSERT_TRUE(dup.AddColumn(src.column(c).name(), src.column(c).type()).ok());
  }
  for (int k = 0; k < 3; ++k) {
    for (RowId r = 0; r < src.num_rows(); ++r) dup.AppendRowIds(src.RowIds(r));
  }
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(dup).ValueOrDie();
  ExpectRegenerates(a, src);
}

TEST_F(FastQreTest, SingleTableProjection) {
  QueryBuilder b(&db_);
  InstanceId n = b.Instance("nation");
  b.Project(n, "n_name");
  b.Project(n, "n_regionkey");
  Table rout =
      ExecuteToTable(db_, b.Build().ValueOrDie(), "rout").ValueOrDie();
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(rout).ValueOrDie();
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.num_instances, 1u);
  EXPECT_EQ(a.num_joins, 0u);
  ExpectRegenerates(a, rout);
}

TEST_F(FastQreTest, AnswerMetadataConsistent) {
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(workload_[3].rout).ValueOrDie();
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.num_instances, a.query.num_instances());
  EXPECT_EQ(a.num_joins, a.query.joins().size());
  EXPECT_EQ(a.sql, a.query.ToSql(db_));
  EXPECT_GT(a.stats.total_seconds, 0.0);
  EXPECT_GT(a.stats.candidates_generated, 0u);
  EXPECT_EQ(a.stats.mappings_tried, 1u);  // top-ranked mapping suffices
}

TEST_F(FastQreTest, ReverseAllEnumeratesDistinctGeneratingQueries) {
  FastQre engine(&db_);
  auto answers = engine.ReverseAll(workload_[1].rout, 3).ValueOrDie();
  ASSERT_GE(answers.size(), 2u);
  std::set<std::string> sqls;
  for (const auto& a : answers) {
    ASSERT_TRUE(a.found);
    EXPECT_TRUE(sqls.insert(a.sql).second) << "duplicate answer " << a.sql;
    ExpectRegenerates(a, workload_[1].rout);
  }
}

TEST_F(FastQreTest, TimeBudgetReturnsGracefully) {
  QreOptions opts;
  opts.time_budget_seconds = 1e-9;  // expires immediately
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[8].rout).ValueOrDie();
  EXPECT_FALSE(a.found);
  EXPECT_NE(a.failure_reason.find("budget"), std::string::npos);
}

TEST_F(FastQreTest, SupersetVariantOnSampledRout) {
  // Sample half of L04's R_out: the superset engine must find a query whose
  // output contains the sample.
  const Table& src = workload_[3].rout;
  Table sample("sample", db_.dictionary());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    ASSERT_TRUE(
        sample.AddColumn(src.column(c).name(), src.column(c).type()).ok());
  }
  for (RowId r = 0; r < src.num_rows(); r += 2) {
    sample.AppendRowIds(src.RowIds(r));
  }
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(sample).ValueOrDie();
  ASSERT_TRUE(a.found) << a.failure_reason;
  Table result = ExecuteToTable(db_, a.query, "result").ValueOrDie();
  TupleSet result_set = TableToTupleSet(result);
  TupleSet sample_set = TableToTupleSet(sample);
  EXPECT_TRUE(IsSubsetOf(sample_set, result_set)) << a.sql;
}

TEST_F(FastQreTest, ExactVariantAnswerAlsoSolvesSuperset) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[2].rout).ValueOrDie();
  ASSERT_TRUE(a.found);
  Table result = ExecuteToTable(db_, a.query, "result").ValueOrDie();
  EXPECT_TRUE(
      IsSubsetOf(TableToTupleSet(workload_[2].rout), TableToTupleSet(result)));
}

// Every single-component ablation must still find generating queries (they
// trade speed, not correctness). Parameterized over the toggles.
struct AblationSpec {
  const char* name;
  void (*apply)(QreOptions*);
};

// gtest would otherwise dump the spec's bytes -- two pointers that move with
// every process under ASLR -- into the listed test names, so CTest would
// register a different name for the same case on every build.
void PrintTo(const AblationSpec& spec, std::ostream* os) { *os << spec.name; }

class AblationTest : public ::testing::TestWithParam<AblationSpec> {};

TEST_P(AblationTest, StillFindsGeneratingQuery) {
  Database db = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  QreOptions opts;
  GetParam().apply(&opts);
  opts.time_budget_seconds = 60.0;
  FastQre engine(&db, opts);
  // L01..L05 + L08 cover the non-self-join shapes cheaply.
  for (int i : {0, 1, 2, 3, 4, 7}) {
    QreAnswer a = engine.Reverse(workload[i].rout).ValueOrDie();
    ASSERT_TRUE(a.found) << GetParam().name << " on " << workload[i].name
                         << ": " << a.failure_reason;
    Table regen = ExecuteToTable(db, a.query, "regen").ValueOrDie();
    EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload[i].rout))
        << GetParam().name << " on " << workload[i].name << ": " << a.sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, AblationTest,
    ::testing::Values(
        AblationSpec{"no_cgm", [](QreOptions* o) { o->use_cgm_ranking = false; }},
        AblationSpec{"no_indirect",
                     [](QreOptions* o) { o->use_indirect_coherence = false; }},
        AblationSpec{"no_two_queue",
                     [](QreOptions* o) { o->use_two_queue_composer = false; }},
        AblationSpec{"no_progressive",
                     [](QreOptions* o) { o->use_progressive_validation = false; }},
        AblationSpec{"no_probing", [](QreOptions* o) { o->use_probing = false; }},
        AblationSpec{"no_feedback",
                     [](QreOptions* o) { o->use_feedback_pruning = false; }},
        AblationSpec{"no_patterns",
                     [](QreOptions* o) { o->use_pattern_pruning = false; }},
        AblationSpec{"alpha_zero", [](QreOptions* o) { o->alpha = 0.0; }},
        AblationSpec{"alpha_one", [](QreOptions* o) { o->alpha = 1.0; }}),
    [](const ::testing::TestParamInfo<AblationSpec>& info) {
      return info.param.name;
    });

TEST_F(FastQreTest, CsvRoundTripLikeAnalystWorkflow) {
  // Export L03's R_out as CSV, reload, reverse engineer.
  std::string csv = TableToCsv(workload_[2].rout);
  Table rout = LoadCsvString(csv, "report", db_.dictionary()).ValueOrDie();
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(rout).ValueOrDie();
  ExpectRegenerates(a, workload_[2].rout);
}

TEST_F(FastQreTest, NaiveBaselineAgreesOnSimpleQueries) {
  NaiveQre naive(&db_, /*time_budget_seconds=*/60.0);
  for (int i : {0, 1, 2, 3}) {
    QreAnswer a = naive.Reverse(workload_[i].rout).ValueOrDie();
    ASSERT_TRUE(a.found) << workload_[i].name << ": " << a.failure_reason;
    Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
    EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[i].rout));
  }
}

TEST_F(FastQreTest, NaiveBaselineOptionsDisableEverything) {
  QreOptions o = NaiveQre::BaselineOptions(5.0);
  EXPECT_FALSE(o.use_cgm_ranking);
  EXPECT_FALSE(o.use_indirect_coherence);
  EXPECT_FALSE(o.use_two_queue_composer);
  EXPECT_FALSE(o.use_progressive_validation);
  EXPECT_FALSE(o.use_probing);
  EXPECT_FALSE(o.use_feedback_pruning);
  EXPECT_FALSE(o.use_pattern_pruning);
  EXPECT_DOUBLE_EQ(o.time_budget_seconds, 5.0);
}

TEST_F(FastQreTest, TraceRecordsSearchWhenRequested) {
  QreOptions opts;
  opts.collect_trace = true;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[8].rout).ValueOrDie();  // L09
  ASSERT_TRUE(a.found);
  ASSERT_FALSE(a.trace.mappings.empty());
  ASSERT_FALSE(a.trace.candidates.empty());
  // The last traced candidate is the generating one.
  EXPECT_EQ(a.trace.candidates.back().outcome, "generating");
  EXPECT_EQ(a.trace.candidates.back().sql, a.sql);
  // Every traced candidate refers to a traced mapping.
  for (const auto& c : a.trace.candidates) {
    EXPECT_GE(c.mapping_index, 0);
    EXPECT_LT(static_cast<size_t>(c.mapping_index), a.trace.mappings.size());
  }
  std::string rendered = a.trace.ToString();
  EXPECT_NE(rendered.find("mapping #0"), std::string::npos);
  EXPECT_NE(rendered.find("generating"), std::string::npos);
}

TEST_F(FastQreTest, TraceEmptyByDefault) {
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(workload_[0].rout).ValueOrDie();
  EXPECT_TRUE(a.trace.mappings.empty());
  EXPECT_TRUE(a.trace.candidates.empty());
}

TEST_F(FastQreTest, StatsToStringMentionsKeySections) {
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(workload_[1].rout).ValueOrDie();
  std::string s = a.stats.ToString();
  EXPECT_NE(s.find("column cover"), std::string::npos);
  EXPECT_NE(s.find("CGM discovery"), std::string::npos);
  EXPECT_NE(s.find("candidates generated"), std::string::npos);
}

TEST_F(FastQreTest, StatsAccumulate) {
  FastQre engine(&db_);
  QreAnswer a = engine.Reverse(workload_[0].rout).ValueOrDie();
  QreAnswer b = engine.Reverse(workload_[1].rout).ValueOrDie();
  b.stats.cancelled = true;  // as if Cancel() had stopped the second run
  QreStats sum = a.stats;
  sum.Accumulate(b.stats);
  // Tallies and seconds add up.
  EXPECT_EQ(sum.candidates_generated,
            a.stats.candidates_generated + b.stats.candidates_generated);
  EXPECT_NEAR(sum.total_seconds, a.stats.total_seconds + b.stats.total_seconds,
              1e-12);
  // The high-water mark and the resident-byte gauges keep the larger run's
  // value: the two runs' bytes were never resident together.
  ASSERT_GT(a.stats.subplan_cache_bytes, 0u);
  for (RelaxedCounter QreStats::*gauge :
       {&QreStats::peak_tracked_bytes, &QreStats::walk_cache_bytes,
        &QreStats::subplan_cache_bytes}) {
    EXPECT_EQ(sum.*gauge, std::max<uint64_t>(a.stats.*gauge, b.stats.*gauge));
  }
  // Flags or.
  EXPECT_TRUE(sum.cancelled);
}

}  // namespace
}  // namespace fastqre
