// Differential harness for the execution policy (DESIGN.md §12): over every
// random-db scenario of the executor property test, the block executor must
// produce byte-identical results across SIP {off, on} × morsel sizes
// {1, 7, 2048} (the only policy fields it reads besides the cache and the
// governor), with every governor charge released; the pipelined cursor must
// stream identical rows under the scalar and batched probe kernels;
// Reverse() must return byte-identical ranked SQL across kernels ×
// intra-candidate threads; and an interrupt must land within one morsel of
// work.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/resource_governor.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "engine/subplan_cache.h"
#include "qre/fastqre.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

// The block executor's policy matrix: SIP × morsel size (its interrupt-poll
// granularity).
std::vector<ExecPolicy> BlockPolicyMatrix() {
  std::vector<ExecPolicy> out;
  for (bool sip : {false, true}) {
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
      ExecPolicy p;
      p.use_sip = sip;
      p.morsel_size = morsel;
      out.push_back(p);
    }
  }
  return out;
}

std::string PolicyName(const ExecPolicy& p) {
  return std::string(p.use_sip ? "sip" : "nosip") + "/m" +
         std::to_string(p.morsel_size);
}

Database SeededRandomDb(uint64_t seed) {
  RandomDbOptions db_opts;
  db_opts.seed = seed;
  db_opts.num_tables = 3;
  db_opts.min_rows = 8;
  db_opts.max_rows = 25;
  db_opts.extra_fk_edges = static_cast<int>(seed % 2);
  return BuildRandomDb(db_opts).ValueOrDie();
}

class MorselDifferential : public ::testing::TestWithParam<uint64_t> {};

// Block executor: every (SIP, morsel-size) configuration must emit the same
// relation byte-for-byte (row order included — the walk meets tuples in
// nested-loop order whatever the policy).
TEST_P(MorselDifferential, BlockExecutorMatrixIsByteIdentical) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed * 1337 + 11);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 2);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  const std::vector<ExecPolicy> matrix = BlockPolicyMatrix();
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    const std::string baseline =
        TableToCsv(ExecuteBlock(db, wq->query, "block").ValueOrDie());
    for (const ExecPolicy& p : matrix) {
      auto got = ExecuteBlock(db, wq->query, "block", {}, p);
      ASSERT_TRUE(got.ok()) << PolicyName(p) << " seed " << seed;
      EXPECT_EQ(TableToCsv(*got), baseline)
          << PolicyName(p) << " seed " << seed << " trial " << trial << "\n"
          << wq->query.ToSql(db);
    }
  }
}

// Pipelined cursor: the batched reach/probe kernels must yield the same
// *ordered* row stream as the scalar ones (stronger than set equality).
TEST_P(MorselDifferential, CursorStreamsAgreeAcrossKernels) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed + 77);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    std::vector<std::vector<ValueId>> streams[2];
    for (int batch = 0; batch < 2; ++batch) {
      ExecPolicy p;
      p.batch_probes = (batch == 1);
      auto cursor = QueryCursor::Create(db, wq->query, {}, {}, p).ValueOrDie();
      std::vector<ValueId> row;
      while (cursor->Next(&row)) streams[batch].push_back(row);
    }
    EXPECT_EQ(streams[0], streams[1])
        << "seed " << seed << " trial " << trial << "\n"
        << wq->query.ToSql(db);
  }
}

// Rebind on a planned cursor must be indistinguishable from a fresh
// Create with the new constants — the whole point of batching probes.
TEST_P(MorselDifferential, RebindMatchesFreshCreate) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed + 3);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 1;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  if (!wq.ok() || wq->rout.num_rows() < 2) GTEST_SKIP();

  // One selection per projection column, bound to R_out tuple 0 at Create.
  PJQuery probe = wq->query;
  const auto projections = probe.projections();
  for (size_t j = 0; j < projections.size(); ++j) {
    probe.AddSelection(projections[j].instance, projections[j].column,
                       wq->rout.column(static_cast<ColumnId>(j)).at(0));
  }
  ExecPolicy p;  // batched default
  auto shared = QueryCursor::Create(db, probe, {}, {}, p).ValueOrDie();
  ASSERT_EQ(shared->num_rebindable(), projections.size());

  for (RowId r = 0; r < wq->rout.num_rows(); ++r) {
    std::vector<ValueId> vals(projections.size());
    for (size_t j = 0; j < vals.size(); ++j) {
      vals[j] = wq->rout.column(static_cast<ColumnId>(j)).at(r);
    }
    shared->Rebind(vals.data(), vals.size());
    std::vector<std::vector<ValueId>> rebound;
    std::vector<ValueId> row;
    while (shared->Next(&row)) rebound.push_back(row);

    PJQuery fresh_q = wq->query;
    for (size_t j = 0; j < vals.size(); ++j) {
      fresh_q.AddSelection(projections[j].instance, projections[j].column,
                           vals[j]);
    }
    auto fresh = QueryCursor::Create(db, fresh_q).ValueOrDie();
    std::vector<std::vector<ValueId>> expected;
    while (fresh->Next(&row)) expected.push_back(row);
    ASSERT_EQ(rebound, expected) << "seed " << seed << " tuple " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorselDifferential,
                         ::testing::Range<uint64_t>(1, 26));

// Governor balance: after the block executor has run (any configuration),
// every charged block-buffer byte must have been released — only the
// persistent index builds may remain tracked.
TEST(MorselExecutor, GovernorBalancedAcrossMatrix) {
  Database db = SeededRandomDb(4);
  Rng rng(999);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  ASSERT_TRUE(wq.ok());
  auto governor = std::make_shared<ResourceGovernor>(0);
  db.AttachGovernor(governor);
  // Warm-up builds (and permanently charges) the plan's hash indexes.
  (void)ExecuteBlock(db, wq->query, "block").ValueOrDie();
  const uint64_t resting = governor->tracked_bytes();
  for (const ExecPolicy& p : BlockPolicyMatrix()) {
    (void)ExecuteBlock(db, wq->query, "block", {}, p).ValueOrDie();
    EXPECT_EQ(governor->tracked_bytes(), resting) << PolicyName(p);
  }
  db.DetachGovernor(governor.get());
}

// End-to-end determinism: Reverse() must return byte-identical SQL across
// kernels, intra-thread counts and morsel sizes (the §12 contract).
TEST(MorselExecutor, RankedSqlIdenticalAcrossPolicies) {
  TpchOptions tpch;
  tpch.scale_factor = 0.001;
  tpch.seed = 3;
  Database db = BuildTpch(tpch).ValueOrDie();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  for (size_t wi : {size_t{0}, size_t{8}}) {
    const auto& wq = workload[wi];
    std::string baseline_sql;
    bool first = true;
    for (bool batch : {true, false}) {
      for (int intra : {1, 8}) {
        QreOptions opts;
        opts.use_batched_probes = batch;
        opts.intra_candidate_threads = intra;
        opts.morsel_size = 64;
        opts.intra_row_threshold = 1;
        FastQre engine(&db, opts);
        auto answer = engine.Reverse(wq.rout).ValueOrDie();
        ASSERT_TRUE(answer.found)
            << wq.name << " batch=" << batch << " intra=" << intra;
        if (first) {
          baseline_sql = answer.sql;
          first = false;
        } else {
          EXPECT_EQ(answer.sql, baseline_sql)
              << wq.name << " batch=" << batch << " intra=" << intra;
        }
      }
    }
  }
}

// Satellite 4 regression: the block executor polls the interrupt once per
// morsel (not once per kInterruptPollMask tuples), so a deadline or Cancel()
// lands within one morsel of extra work.
TEST(MorselExecutor, InterruptHonoredWithinOneMorsel) {
  Database db = SeededRandomDb(7);
  Rng rng(7);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 3;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  ASSERT_TRUE(wq.ok());

  // An immediately-true interrupt must abort the evaluation regardless of
  // morsel size — even a single-morsel run reaches a poll point.
  for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
    ExecPolicy p;
    p.morsel_size = morsel;
    auto r = ExecuteBlock(db, wq->query, "block", [] { return true; }, p);
    ASSERT_FALSE(r.ok()) << "morsel " << morsel;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }

  // Poll frequency scales with morsel count: a morsel size of 1 must poll
  // strictly more often than one covering the whole input — the structural
  // guarantee that interrupt latency is bounded by one morsel, not by a
  // fixed row mask.
  auto count_polls = [&](size_t morsel) {
    size_t polls = 0;
    ExecPolicy p;
    p.morsel_size = morsel;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls] {
                            ++polls;
                            return false;
                          },
                          p);
    EXPECT_TRUE(r.ok());
    return polls;
  };
  const size_t fine = count_polls(1);
  const size_t coarse = count_polls(1u << 20);
  EXPECT_GT(fine, coarse);
  EXPECT_GE(coarse, 1u);
}

// Guard-path twin: the depth-first extras check polls once per morsel_size
// index lookups, including on a warm cache that skips the scan; every abort
// returns ResourceExhausted, publishes nothing to the cache and leaves the
// governor balanced.
TEST(MorselExecutor, GuardWalkInterruptHonoredWithinOneMorsel) {
  Database db = SeededRandomDb(7);
  Rng rng(7);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 3;
  q_opts.min_rout_rows = 0;
  auto wq = RandomCpjQuery(db, &rng, q_opts);
  ASSERT_TRUE(wq.ok());
  // The full result as the guard: the walk never stops early on its own.
  const TupleSet guard =
      TableToTupleSet(ExecuteBlock(db, wq->query, "block").ValueOrDie());

  for (bool warm : {false, true}) {
    auto governor = std::make_shared<ResourceGovernor>(0);
    SubplanCache cache(64 << 20, 0, governor);
    ExecPolicy p;
    p.subplan_cache = &cache;
    p.governor = governor;
    if (warm) {
      bool violated = true;
      ASSERT_TRUE(ExecuteBlock(db, wq->query, "block", {}, p, &guard,
                               &violated)
                      .ok());
      ASSERT_FALSE(violated);
    }
    const size_t resting_cache = cache.bytes();
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
      SCOPED_TRACE("warm " + std::to_string(warm) + " morsel " +
                   std::to_string(morsel));
      p.morsel_size = morsel;
      bool violated = false;
      auto r = ExecuteBlock(db, wq->query, "block", [] { return true; }, p,
                            &guard, &violated);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(cache.bytes(), resting_cache);
      EXPECT_EQ(governor->tracked_bytes(), resting_cache);
    }
  }

  auto count_polls = [&](size_t morsel) {
    size_t polls = 0;
    ExecPolicy p;
    p.morsel_size = morsel;
    bool violated = true;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls] {
                            ++polls;
                            return false;
                          },
                          p, &guard, &violated);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(violated);
    return polls;
  };
  const size_t fine = count_polls(1);
  const size_t coarse = count_polls(1u << 20);
  EXPECT_GT(fine, coarse);
  EXPECT_GE(coarse, 1u);
}

}  // namespace
}  // namespace fastqre
