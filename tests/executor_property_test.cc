// Differential property test: the pipelined index-nested-loop executor must
// agree with a brute-force cross-product reference evaluator on random small
// queries over random small databases (joins, self-joins, same-instance
// filters, selections).
#include <gtest/gtest.h>

#include "brute_force.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "engine/subplan_cache.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

class ExecutorDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDifferential, AgreesWithBruteForce) {
  const uint64_t seed = GetParam();
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  Database db = BuildRandomDb(db_opts).ValueOrDie();

  Rng rng(seed * 1337 + 11);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    TupleSet expected = BruteForce(db, wq->query);
    TupleSet actual = TableToTupleSet(
        ExecuteToTable(db, wq->query, "actual").ValueOrDie());
    ASSERT_EQ(actual, expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
    // The block executor is a third independent implementation.
    TupleSet block = TableToTupleSet(
        ExecuteBlock(db, wq->query, "block").ValueOrDie());
    ASSERT_EQ(block, expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
  }
}

TEST_P(ExecutorDifferential, AgreesWithBruteForceUnderSelections) {
  const uint64_t seed = GetParam();
  Database db = BuildRandomDb({.seed = seed, .num_tables = 2, .min_rows = 8,
                               .max_rows = 20})
                    .ValueOrDie();
  Rng rng(seed + 5);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  if (!wq.ok()) GTEST_SKIP();

  // Add a random selection binding one projection column to a value present
  // somewhere in the projected table.
  PJQuery q = wq->query;
  const auto& proj = q.projections()[0];
  const Column& col =
      db.table(q.instance_table(proj.instance)).column(proj.column);
  q.AddSelection(proj.instance, proj.column,
                 col.at(static_cast<RowId>(rng.Uniform(col.size()))));

  TupleSet expected = BruteForce(db, q);
  auto cursor = QueryCursor::Create(db, q).ValueOrDie();
  TupleSet actual;
  std::vector<ValueId> row;
  while (cursor->Next(&row)) actual.insert(row);
  // Note: `actual` may legitimately be empty — the selected value exists in
  // its column, but the join can eliminate every row carrying it.
  ASSERT_EQ(actual, expected) << "seed " << seed << "\n" << q.ToSql(db);
}

TEST_P(ExecutorDifferential, SameInstanceFilterAgrees) {
  const uint64_t seed = GetParam();
  Database db = BuildRandomDb({.seed = seed, .num_tables = 2, .min_rows = 10,
                               .max_rows = 20, .data_domain = 6})
                    .ValueOrDie();
  // Query: single instance of t1 with a same-instance equality between two
  // of its data columns (if it has two), projected on the key.
  const Table& t1 = db.table(1);
  if (t1.num_columns() < 4) GTEST_SKIP();  // key, fk, need 2 data columns
  PJQuery q;
  InstanceId i = q.AddInstance(1);
  ColumnId a = static_cast<ColumnId>(t1.num_columns() - 2);
  ColumnId b = static_cast<ColumnId>(t1.num_columns() - 1);
  q.AddJoin(i, a, i, b);
  q.AddProjection(i, 0);
  TupleSet expected = BruteForce(db, q);
  TupleSet actual =
      TableToTupleSet(ExecuteToTable(db, q, "actual").ValueOrDie());
  ASSERT_EQ(actual, expected) << "seed " << seed;
}

TEST_P(ExecutorDifferential, SipAndSubplanCacheAreSemanticsPreserving) {
  // DESIGN.md §13: SIP filters and subplan memoization may only skip work,
  // never change results. A guard-less ExecuteBlock must emit a
  // byte-identical relation (CSV compare: row order included) under every
  // {use_sip} × {morsel size} configuration and match the brute-force
  // reference. The guarded walk, with that reference as its guard, must
  // report no violation and return the same relation under every
  // {use_sip} × {subplan cache} cell. The caches are shared across all
  // trials of a seed, so later trials really consume prefixes stored by
  // earlier ones (admission 0 stores on first offer).
  const uint64_t seed = GetParam();
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  Database db = BuildRandomDb(db_opts).ValueOrDie();

  SubplanCache cache(/*budget_bytes=*/64 << 20, /*admission=*/0);
  SubplanCache tiny_cache(/*budget_bytes=*/512, /*admission=*/0);
  Rng rng(seed * 4099 + 3);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    const TupleSet expected = BruteForce(db, wq->query);
    ExecPolicy off;
    off.use_sip = false;
    const Table reference =
        ExecuteBlock(db, wq->query, "block", {}, off).ValueOrDie();
    ASSERT_EQ(TableToTupleSet(reference), expected)
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
    const std::string baseline = TableToCsv(reference);
    for (bool sip : {false, true}) {
      for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
        ExecPolicy p;
        p.use_sip = sip;
        p.morsel_size = morsel;
        auto got = ExecuteBlock(db, wq->query, "block", {}, p);
        ASSERT_TRUE(got.ok()) << "seed " << seed << " trial " << trial;
        EXPECT_EQ(TableToCsv(*got), baseline)
            << "seed " << seed << " trial " << trial << " sip=" << sip
            << " morsel=" << morsel << "\n"
            << wq->query.ToSql(db);
      }
      for (SubplanCache* memo : {static_cast<SubplanCache*>(nullptr), &cache,
                                 &tiny_cache}) {
        ExecPolicy p;
        p.use_sip = sip;
        p.subplan_cache = memo;
        bool violated = true;
        auto got = ExecuteBlock(db, wq->query, "block", {}, p, &expected,
                                &violated);
        ASSERT_TRUE(got.ok()) << "seed " << seed << " trial " << trial;
        EXPECT_FALSE(violated);
        EXPECT_EQ(TableToCsv(*got), baseline)
            << "seed " << seed << " trial " << trial << " sip=" << sip
            << " memo=" << (memo == &cache ? "64M" : memo ? "512B" : "off")
            << "\n"
            << wq->query.ToSql(db);
      }
    }
    // The pipelined cursor honours the same policy bit: SIP on and off must
    // stream identical ordered rows.
    std::vector<std::vector<ValueId>> streams[2];
    for (int sip = 0; sip < 2; ++sip) {
      ExecPolicy p;
      p.use_sip = (sip == 1);
      auto cursor =
          QueryCursor::Create(db, wq->query, {}, {}, p).ValueOrDie();
      std::vector<ValueId> row;
      while (cursor->Next(&row)) streams[sip].push_back(row);
    }
    EXPECT_EQ(streams[0], streams[1])
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace fastqre
