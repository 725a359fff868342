// End-to-end robustness tests for the governed search path (DESIGN.md §11):
// every named fault-injection site, under every applicable fault kind, must
// exit cleanly — answers already found are kept, the truncated tail carries
// an honest failure_reason, no thread leaks or deadlocks (the suite runs
// under ASan/TSan in CI), and retried or merely-delayed runs stay
// byte-identical to the fault-free baseline.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/resource_governor.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/fastqre.h"
#include "qre/mapping.h"

namespace fastqre {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  // A fresh database per engine run: the lazy index/pattern caches build
  // exactly once per Database, so reusing one would let the index-build and
  // pattern-build fault sites go silent on the second engine.
  static Database FreshDb() {
    return BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
  }

  // Reverses workload entry `index` on a fresh database with `opts`.
  static QreAnswer Run(size_t index, QreOptions opts) {
    Database db = FreshDb();
    auto workload = StandardTpchWorkload(db).ValueOrDie();
    FastQre engine(&db, opts);
    return engine.Reverse(workload[index].rout).ValueOrDie();
  }

  // Like Run() but enumerates: with a high limit, a cancel injected at any
  // point must surface as an unfound tail entry — even when it lands while
  // the winning candidate is validating (the answer is still accepted; only
  // the enumeration of *further* answers is truncated).
  static std::vector<QreAnswer> RunAll(size_t index, QreOptions opts) {
    Database db = FreshDb();
    auto workload = StandardTpchWorkload(db).ValueOrDie();
    FastQre engine(&db, opts);
    return engine.ReverseAll(workload[index].rout, 100).ValueOrDie();
  }
};

// ---- Malformed specs --------------------------------------------------------

TEST_F(FaultInjectionTest, MalformedSpecIsReportedNotIgnored) {
  Database db = FreshDb();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  for (const char* spec : {"bogus", "site=explode", "site=cancel@0"}) {
    QreOptions opts;
    opts.fault_spec = spec;
    FastQre engine(&db, opts);
    auto result = engine.Reverse(workload[0].rout);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << spec;
  }
}

// ---- Injected cancellation at every site ------------------------------------

TEST_F(FaultInjectionTest, CancelAtEachSiteExitsCleanlyAsCancelled) {
  struct Case {
    const char* site;
    size_t workload_index;
    bool disable_progressive;  // route validation through the block executor
    int admission;             // walk-cache admission threshold
  };
  const std::vector<Case> cases = {
      {"index-build", 0, false, 2},
      {"pattern-build", 0, false, 2},
      {"mapping-frontier", 0, false, 2},
      // Multi-instance workload: the block executor only charges when a
      // join step materializes intermediates, so a single-table R_out
      // would never reach the site.
      {"block-buffer", 8, true, 2},
      // Default options: the exact extras check's guard walk charges it.
      {"block-buffer", 8, false, 2},
      {"walk-cache-build", 8, false, 0},  // L09: multi-instance, walk-heavy
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    QreOptions opts;
    opts.fault_spec = std::string(c.site) + "=cancel";
    opts.use_progressive_validation = !c.disable_progressive;
    // Probing bypasses the block executor entirely; turn it off whenever
    // the case routes through ExecuteBlock.
    opts.use_probing = !c.disable_progressive;
    opts.walk_cache_admission = c.admission;
    std::vector<QreAnswer> got = RunAll(c.workload_index, opts);
    ASSERT_GE(got.size(), 1u);
    const QreAnswer& tail = got.back();
    EXPECT_FALSE(tail.found);
    EXPECT_EQ(tail.failure_reason, "cancelled");
    EXPECT_TRUE(tail.stats.cancelled);
    EXPECT_GT(tail.stats.total_seconds, 0.0);
  }
}

TEST_F(FaultInjectionTest, CancelDuringCgmDiscoveryExitsCleanly) {
  // Pick a workload whose discovery actually reaches the apriori join (the
  // "cgm-discovery" site sits in front of each multi-column coherence
  // check); single-column reports never get there.
  Database db = FreshDb();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  int chosen = -1;
  for (size_t i = 0; i < workload.size(); ++i) {
    FastQre engine(&db, QreOptions());
    QreAnswer a = engine.Reverse(workload[i].rout).ValueOrDie();
    if (a.stats.cgm_candidates_checked > 0) {
      chosen = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(chosen, 0) << "no workload entry exercises the apriori join";

  QreOptions opts;
  opts.fault_spec = "cgm-discovery=cancel";
  QreAnswer a = Run(static_cast<size_t>(chosen), opts);
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.failure_reason, "cancelled");
  EXPECT_TRUE(a.stats.cancelled);
  // Discovery aborted before the mapping phase could start.
  EXPECT_EQ(a.stats.mappings_tried, 0u);
}

TEST_F(FaultInjectionTest, CancelInParallelWorkerJoinsCleanly) {
  // The cancel fires inside a validation worker; the pool must drain and
  // join without deadlocking on the rank barrier (TSan covers the races).
  for (uint64_t nth : {1u, 3u}) {
    QreOptions opts;
    opts.validation_threads = 8;
    opts.fault_spec = "parallel-worker=cancel@" + std::to_string(nth);
    std::vector<QreAnswer> got = RunAll(8, opts);
    SCOPED_TRACE("nth=" + std::to_string(nth));
    ASSERT_GE(got.size(), 1u);
    EXPECT_FALSE(got.back().found);
    EXPECT_EQ(got.back().failure_reason, "cancelled");
    EXPECT_TRUE(got.back().stats.cancelled);
  }
}

// ---- External cancellation --------------------------------------------------

TEST_F(FaultInjectionTest, ExternalCancelFromAnotherThreadIsClean) {
  Database db = FreshDb();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  QreOptions opts;
  opts.validation_threads = 4;
  // Slow the workers down so the cancel usually lands mid-search; whichever
  // side wins the race, the run must end cleanly.
  opts.fault_spec = "parallel-worker=delay";
  FastQre engine(&db, opts);
  std::thread canceller([&engine] { engine.Cancel(); });
  QreAnswer a = engine.Reverse(workload[8].rout).ValueOrDie();
  canceller.join();
  if (!a.found) {
    EXPECT_EQ(a.failure_reason, "cancelled");
    EXPECT_TRUE(a.stats.cancelled);
  }
  // Cancellation is sticky: the next call on the same engine stops at its
  // first poll.
  QreAnswer again = engine.Reverse(workload[0].rout).ValueOrDie();
  EXPECT_FALSE(again.found);
  EXPECT_EQ(again.failure_reason, "cancelled");
}

// ---- Injected allocation failure -------------------------------------------

TEST_F(FaultInjectionTest, AllocFailAtRequiredSitesSurfacesMemoryExhaustion) {
  for (const char* site : {"index-build", "pattern-build", "mapping-frontier"}) {
    SCOPED_TRACE(site);
    QreOptions opts;
    opts.fault_spec = std::string(site) + "=alloc-fail";
    QreAnswer a = Run(0, opts);
    EXPECT_FALSE(a.found);
    EXPECT_EQ(a.failure_reason, "memory budget exceeded");
    EXPECT_FALSE(a.stats.cancelled);
    EXPECT_GE(a.stats.degradation_events, 1u);
  }
}

TEST_F(FaultInjectionTest, AllocFailAtWalkCacheKeepsAnswersIdentical) {
  // Refusing a cache materialization only changes *where* join work happens
  // (DESIGN.md §9/§11): the answer must stay byte-identical to baseline.
  QreOptions base;
  base.walk_cache_admission = 0;
  QreAnswer reference = Run(8, base);
  ASSERT_TRUE(reference.found) << reference.failure_reason;

  for (int threads : {1, 8}) {
    QreOptions opts = base;
    opts.validation_threads = threads;
    opts.fault_spec = "walk-cache-build=alloc-fail";
    QreAnswer got = Run(8, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.sql, reference.sql);
    EXPECT_EQ(got.failure_reason, reference.failure_reason);
  }
}

TEST_F(FaultInjectionTest, AllocFailAtBlockBufferExitsCleanly) {
  // A refused block-buffer charge dismisses only the affected candidate
  // (kError); the search must either still conclude or fail honestly —
  // never crash or hang.
  QreOptions opts;
  opts.use_progressive_validation = false;
  opts.fault_spec = "block-buffer=alloc-fail";
  QreAnswer a = Run(0, opts);
  if (!a.found) {
    EXPECT_FALSE(a.failure_reason.empty());
  }
}

TEST_F(FaultInjectionTest,
       AllocFailAtBlockBufferWithDefaultOptionsExitsCleanly) {
  // Default options route the exact extras check through the block
  // executor's guard walk, whose scan, level buffers, class sets and output
  // all charge block-buffer: every refusal dismisses only that candidate.
  QreOptions opts;
  opts.fault_spec = "block-buffer=alloc-fail";
  QreAnswer a = Run(0, opts);
  EXPECT_GT(a.stats.full_validations, 0u);
  if (!a.found) {
    EXPECT_FALSE(a.failure_reason.empty());
  }
  // Multi-level walks (L09, L10), refused on their first charges only: a
  // permanent refusal would dismiss every candidate of these large searches.
  opts.fault_spec = "block-buffer=alloc-fail@1..3";
  for (size_t index : {size_t{8}, size_t{9}}) {
    SCOPED_TRACE("workload " + std::to_string(index));
    QreAnswer b = Run(index, opts);
    EXPECT_GT(b.stats.full_validations, 0u);
    if (!b.found) {
      EXPECT_FALSE(b.failure_reason.empty());
    }
  }
}

TEST_F(FaultInjectionTest, AllocFailAtSubplanCacheKeepsAnswersIdentical) {
  // Refusing a subplan-cache store only makes convoy candidates recompute
  // their join prefixes (DESIGN.md §13): the answer must stay byte-identical
  // to the fault-free baseline.
  QreOptions base;
  base.subplan_cache_admission = 0;  // store on first offer: maximal traffic
  QreAnswer reference = Run(9, base);
  ASSERT_TRUE(reference.found) << reference.failure_reason;

  for (int threads : {1, 8}) {
    QreOptions opts = base;
    opts.validation_threads = threads;
    opts.fault_spec = "subplan-build=alloc-fail";
    QreAnswer got = Run(9, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.sql, reference.sql);
    EXPECT_EQ(got.failure_reason, reference.failure_reason);
    // Every store was refused, so no hit can have been served.
    EXPECT_EQ(got.stats.subplan_cache_hits, 0u);
  }
}

TEST_F(FaultInjectionTest, CancelAtSubplanCacheSiteExitsCleanly) {
  QreOptions opts;
  opts.subplan_cache_admission = 0;
  opts.fault_spec = "subplan-build=cancel";
  std::vector<QreAnswer> got = RunAll(9, opts);
  ASSERT_GE(got.size(), 1u);
  EXPECT_FALSE(got.back().found);
  EXPECT_EQ(got.back().failure_reason, "cancelled");
  EXPECT_TRUE(got.back().stats.cancelled);
}

// ---- Delay injection: determinism under perturbed timing --------------------

TEST_F(FaultInjectionTest, DelaysNeverChangeTheAnswer) {
  QreAnswer reference = Run(8, QreOptions());
  ASSERT_TRUE(reference.found) << reference.failure_reason;
  for (int threads : {1, 8}) {
    QreOptions opts;
    opts.validation_threads = threads;
    opts.walk_cache_admission = 0;
    opts.fault_spec =
        "parallel-worker=delay@2,walk-cache-build=delay,index-build=delay";
    QreAnswer got = Run(8, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.sql, reference.sql);
  }
}

// ---- Retry determinism ------------------------------------------------------

TEST_F(FaultInjectionTest, RetryWithSameSpecIsByteIdentical) {
  QreOptions opts;
  opts.fault_spec = "mapping-frontier=cancel@40";
  QreAnswer first = Run(3, opts);
  QreAnswer second = Run(3, opts);
  EXPECT_EQ(first.found, second.found);
  EXPECT_EQ(first.sql, second.sql);
  EXPECT_EQ(first.failure_reason, second.failure_reason);
  EXPECT_EQ(first.stats.cancelled, second.stats.cancelled);
}

// ---- ReverseAll truncation semantics ----------------------------------------

TEST_F(FaultInjectionTest, ReverseAllKeepsFoundAnswersOnCancel) {
  Database db = FreshDb();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  auto baseline =
      FastQre(&db, QreOptions()).ReverseAll(workload[3].rout, 3).ValueOrDie();
  ASSERT_GE(baseline.size(), 1u);
  ASSERT_TRUE(baseline[0].found);

  // Cancel right after the first accepted answer: the answer survives and
  // the truncated tail says why enumeration stopped.
  QreOptions opts;
  opts.fault_spec = "answer-found=cancel@1";
  Database db2 = FreshDb();
  auto workload2 = StandardTpchWorkload(db2).ValueOrDie();
  FastQre engine(&db2, opts);
  auto got = engine.ReverseAll(workload2[3].rout, 3).ValueOrDie();
  ASSERT_GE(got.size(), 2u);
  EXPECT_TRUE(got[0].found);
  EXPECT_EQ(got[0].sql, baseline[0].sql);
  EXPECT_FALSE(got.back().found);
  EXPECT_EQ(got.back().failure_reason, "cancelled");
  EXPECT_TRUE(got.back().stats.cancelled);
}

// ---- Memory budgets ---------------------------------------------------------

TEST_F(FaultInjectionTest, GenerousBudgetIsByteIdenticalToUngoverned) {
  for (size_t index : {size_t{3}, size_t{8}}) {
    QreAnswer reference = Run(index, QreOptions());
    for (int threads : {1, 8}) {
      QreOptions opts;
      opts.memory_budget_bytes = 1ull << 30;  // configured but never reached
      opts.validation_threads = threads;
      QreAnswer got = Run(index, opts);
      SCOPED_TRACE("index=" + std::to_string(index) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(got.found, reference.found);
      EXPECT_EQ(got.sql, reference.sql);
      EXPECT_EQ(got.failure_reason, reference.failure_reason);
      EXPECT_GT(got.stats.peak_tracked_bytes, 0u);
      EXPECT_EQ(got.stats.degradation_events, 0u);
      EXPECT_FALSE(got.stats.cancelled);
      EXPECT_NE(got.stats.ToString().find("resource governor:"),
                std::string::npos);
    }
  }
}

TEST_F(FaultInjectionTest, TinyBudgetDegradesThenFailsHonestly) {
  QreOptions opts;
  opts.memory_budget_bytes = 4096;  // the first index build overflows this
  QreAnswer a = Run(0, opts);
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.failure_reason, "memory budget exceeded");
  EXPECT_GE(a.stats.degradation_events, 1u);
  EXPECT_GT(a.stats.peak_tracked_bytes, 4096u);
}

// ---- Deadline coverage per phase (regression) -------------------------------

TEST_F(FaultInjectionTest, DeadlineInterruptsCgmDiscovery) {
  // An already-expired deadline must abort discovery at its first poll —
  // before this audit, discovery always ran to completion and only the
  // mapping loop noticed the budget.
  QreOptions opts;
  opts.time_budget_seconds = 1e-9;
  QreAnswer a = Run(0, opts);
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.failure_reason, "time budget exceeded");
  EXPECT_EQ(a.stats.num_cgms, 0u);        // discovery itself was cut short
  EXPECT_EQ(a.stats.mappings_tried, 0u);  // and later phases never started
}

TEST_F(FaultInjectionTest, DeadlineInterruptsMappingEnumeration) {
  Database db = FreshDb();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  QreOptions options;
  QreStats stats;
  ColumnCover cover =
      ComputeColumnCover(db, workload[0].rout, options, &stats);
  ASSERT_FALSE(cover.HasEmptyCover());
  CgmSet cgms = DiscoverCgms(db, workload[0].rout, cover, options, &stats);

  RunControl run(1e-9, nullptr, nullptr);
  MappingEnumerator mappings(&db, &workload[0].rout, &cover, &cgms, &options,
                             [&run] { return run.ShouldStop(); });
  ColumnMapping m;
  // The frontier holds the root state, but the expired deadline stops the
  // best-first search at its very first poll.
  EXPECT_FALSE(mappings.Next(&m));
  EXPECT_EQ(run.cause(), StopCause::kDeadline);
}

}  // namespace
}  // namespace fastqre
