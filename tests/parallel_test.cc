// Determinism tests for the parallel validation pool: Reverse() must return
// byte-identical answers for any validation_threads setting (the rank
// barrier of DESIGN.md §8), and the statistics must stay internally
// consistent when candidates are cancelled mid-flight. Also unit-tests the
// common threading primitives the pool is built from.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/fastqre.h"

namespace fastqre {
namespace {

// Stats invariants that must hold for every run, serial or parallel.
void ExpectConsistentStats(const QreStats& s, const std::string& context) {
  EXPECT_LE(s.candidates_validated + s.candidates_cancelled,
            s.candidates_generated)
      << context;
  EXPECT_LE(s.candidates_dismissed_probe, s.candidates_validated) << context;
  EXPECT_LE(s.candidates_dismissed_walk, s.candidates_validated) << context;
  EXPECT_LE(s.probe_rows + s.coherence_rows + s.alltuple_rows + s.fullscan_rows,
            s.validation_rows)
      << context;
}

class ParallelQreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
    workload_ = StandardTpchWorkload(db_).ValueOrDie();
  }

  // Runs Reverse() with each thread count and asserts the answers match the
  // serial one field-for-field.
  void ExpectThreadCountInvariant(const Table& rout, QreOptions base,
                                  const std::string& name) {
    base.validation_threads = 1;
    FastQre serial(&db_, base);
    QreAnswer reference = serial.Reverse(rout).ValueOrDie();
    ExpectConsistentStats(reference.stats, name + " serial");

    for (int threads : {2, 8}) {
      QreOptions opts = base;
      opts.validation_threads = threads;
      FastQre parallel(&db_, opts);
      QreAnswer got = parallel.Reverse(rout).ValueOrDie();
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      EXPECT_EQ(got.found, reference.found);
      EXPECT_EQ(got.sql, reference.sql);
      EXPECT_EQ(got.failure_reason, reference.failure_reason);
      EXPECT_EQ(got.num_instances, reference.num_instances);
      EXPECT_EQ(got.num_joins, reference.num_joins);
      ExpectConsistentStats(got.stats, name);
    }
  }

  Database db_;
  std::vector<WorkloadQuery> workload_;
};

TEST_F(ParallelQreTest, LadderAnswersIdenticalAcrossThreadCounts) {
  // The full complexity ladder, exact variant — including the paper's
  // cyclic self-join Queries 2 and 1 (L09/L10).
  for (const auto& wq : workload_) {
    ExpectThreadCountInvariant(wq.rout, QreOptions(), wq.name);
  }
}

TEST_F(ParallelQreTest, SupersetVariantIdenticalAcrossThreadCounts) {
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  for (int i : {0, 2, 4, 8}) {
    ExpectThreadCountInvariant(workload_[i].rout, opts, workload_[i].name);
  }
}

TEST_F(ParallelQreTest, AblationConfigsStayDeterministic) {
  // Determinism must not depend on the pruning machinery being on: with
  // feedback off the composer emits strictly more candidates, with probing
  // off the per-candidate work changes shape — the rank barrier alone must
  // keep answers identical.
  for (auto tweak : {0, 1, 2}) {
    QreOptions opts;
    if (tweak == 0) opts.use_feedback_pruning = false;
    if (tweak == 1) opts.use_probing = false;
    if (tweak == 2) opts.use_indirect_coherence = false;
    ExpectThreadCountInvariant(workload_[5].rout, opts,
                               "tweak" + std::to_string(tweak));
  }
}

TEST_F(ParallelQreTest, RandomCpjWorkloadsIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 11u, 23u}) {
    Database db = BuildRandomDb({.seed = seed, .num_tables = 4}).ValueOrDie();
    Rng rng(seed * 1000 + 1);
    auto wq = RandomCpjQuery(db, &rng, RandomQueryOptions{});
    if (!wq.ok()) continue;  // this seed produced no usable query

    QreOptions base;
    FastQre serial(&db, base);
    QreAnswer reference = serial.Reverse(wq->rout).ValueOrDie();
    for (int threads : {2, 8}) {
      QreOptions opts;
      opts.validation_threads = threads;
      FastQre parallel(&db, opts);
      QreAnswer got = parallel.Reverse(wq->rout).ValueOrDie();
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(got.found, reference.found);
      EXPECT_EQ(got.sql, reference.sql);
      EXPECT_EQ(got.failure_reason, reference.failure_reason);
      ExpectConsistentStats(got.stats, "random seed");
    }
  }
}

TEST_F(ParallelQreTest, ReverseAllEnumeratesIdenticalAnswerLists) {
  // The rank barrier must also hold for multi-answer enumeration: the k-th
  // answer is the k-th generating candidate in rank order.
  FastQre serial(&db_, QreOptions());
  auto reference = serial.ReverseAll(workload_[3].rout, 3).ValueOrDie();
  for (int threads : {2, 8}) {
    QreOptions opts;
    opts.validation_threads = threads;
    FastQre parallel(&db_, opts);
    auto got = parallel.ReverseAll(workload_[3].rout, 3).ValueOrDie();
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].found, reference[i].found) << i;
      EXPECT_EQ(got[i].sql, reference[i].sql) << i;
    }
  }
}

TEST_F(ParallelQreTest, ParallelAnswerStillRegenerates) {
  QreOptions opts;
  opts.validation_threads = 4;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[9].rout).ValueOrDie();
  ASSERT_TRUE(a.found) << a.failure_reason;
  Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
  EXPECT_EQ(TableToTupleSet(regen), TableToTupleSet(workload_[9].rout))
      << a.sql;
}

TEST_F(ParallelQreTest, TraceIsRankOrderedAndMarksCancellations) {
  QreOptions opts;
  opts.validation_threads = 8;
  opts.collect_trace = true;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[7].rout).ValueOrDie();
  ASSERT_TRUE(a.found);
  // Within each mapping the candidates appear in rank order (dc is
  // non-decreasing per mapping is not guaranteed across pool policy, but
  // mapping indexes must be non-decreasing and the generating entry must
  // exist exactly once before any "cancelled" entries of its mapping).
  int last_mapping = -1;
  for (const auto& c : a.trace.candidates) {
    EXPECT_GE(c.mapping_index, last_mapping);
    last_mapping = std::max(last_mapping, c.mapping_index);
  }
  size_t generating = 0;
  for (const auto& c : a.trace.candidates) {
    if (c.outcome == "generating") ++generating;
  }
  EXPECT_GE(generating, 1u);
}

TEST_F(ParallelQreTest, WalkCacheDeterminismMatrix) {
  // DESIGN.md §9: walk substitution must not change accepted answers. Every
  // (cache budget, thread count) combination must reproduce the serial
  // cache-off answer byte-for-byte — including a pathologically tiny budget
  // that keeps evicting and re-admitting relations mid-search.
  for (int i : {8, 9}) {  // L09/L10: the cyclic, walk-heavy ladder entries
    QreOptions off;
    off.walk_cache_budget_bytes = 0;
    FastQre reference_engine(&db_, off);
    QreAnswer reference = reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (uint64_t budget : {uint64_t{4} << 10, uint64_t{64} << 20}) {
      for (int threads : {1, 8}) {
        QreOptions opts;
        opts.walk_cache_budget_bytes = budget;
        opts.walk_cache_admission = 0;  // maximal cache involvement
        opts.validation_threads = threads;
        FastQre engine(&db_, opts);
        QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
        SCOPED_TRACE(workload_[i].name + " budget=" + std::to_string(budget) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(got.found, reference.found);
        EXPECT_EQ(got.sql, reference.sql);
        EXPECT_EQ(got.failure_reason, reference.failure_reason);
        ExpectConsistentStats(got.stats, "walk-cache matrix");
      }
    }
  }
}

TEST_F(ParallelQreTest, SubplanCacheDeterminismMatrix) {
  // DESIGN.md §13: subplan memoization and SIP filtering must not change
  // accepted answers. Every (cache budget, thread count) combination —
  // including a pathologically tiny budget that keeps evicting mid-convoy —
  // must reproduce the both-off serial answer byte-for-byte.
  for (int i : {8, 9}) {  // L09/L10: the convoy-heavy cyclic ladder entries
    QreOptions off;
    off.use_sip = false;
    off.subplan_cache_budget_bytes = 0;
    FastQre reference_engine(&db_, off);
    QreAnswer reference =
        reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (uint64_t budget : {uint64_t{4} << 10, uint64_t{64} << 20}) {
      for (int threads : {1, 8}) {
        QreOptions opts;
        opts.use_sip = true;
        opts.subplan_cache_budget_bytes = budget;
        opts.subplan_cache_admission = 0;  // maximal cache involvement
        opts.validation_threads = threads;
        FastQre engine(&db_, opts);
        QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
        SCOPED_TRACE(workload_[i].name + " budget=" + std::to_string(budget) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(got.found, reference.found);
        EXPECT_EQ(got.sql, reference.sql);
        EXPECT_EQ(got.failure_reason, reference.failure_reason);
        ExpectConsistentStats(got.stats, "subplan-cache matrix");
      }
    }
  }
}

TEST_F(ParallelQreTest, IntraCandidateDeterminismMatrix) {
  // DESIGN.md §12: morsel-driven intra-candidate execution must not change
  // answers. Every (intra threads, validation threads, walk-cache budget,
  // kernel) combination must reproduce the all-defaults serial answer
  // byte-for-byte — a tiny morsel size and threshold force the morsel path
  // onto every candidate.
  for (int i : {8, 9}) {  // L09/L10: the walk-heavy cyclic ladder entries
    FastQre reference_engine(&db_, QreOptions());
    QreAnswer reference =
        reference_engine.Reverse(workload_[i].rout).ValueOrDie();

    for (int intra : {1, 4}) {
      for (int threads : {1, 8}) {
        for (uint64_t budget : {uint64_t{4} << 10, uint64_t{64} << 20}) {
          for (bool batch : {true, false}) {
            QreOptions opts;
            opts.intra_candidate_threads = intra;
            opts.morsel_size = 7;
            opts.intra_row_threshold = 1;
            opts.use_batched_probes = batch;
            opts.validation_threads = threads;
            opts.walk_cache_budget_bytes = budget;
            opts.walk_cache_admission = 0;
            FastQre engine(&db_, opts);
            QreAnswer got = engine.Reverse(workload_[i].rout).ValueOrDie();
            SCOPED_TRACE(workload_[i].name + " intra=" + std::to_string(intra) +
                         " threads=" + std::to_string(threads) + " budget=" +
                         std::to_string(budget) + " batch=" +
                         std::to_string(batch));
            EXPECT_EQ(got.found, reference.found);
            EXPECT_EQ(got.sql, reference.sql);
            EXPECT_EQ(got.failure_reason, reference.failure_reason);
            ExpectConsistentStats(got.stats, "intra matrix");
          }
        }
      }
    }
  }
}

// The morsel-worker fault tests run the superset variant, whose full check
// is the all-tuple probe; an exact candidate reaches the probe only when its
// extras walk dismissed it, so an accepted one never hits the site.

TEST_F(ParallelQreTest, MorselWorkerCancelKeepsProvedAnswers) {
  // An injected cancel firing inside a morsel worker must behave exactly
  // like an external Cancel(): the merge never deadlocks, answers already
  // proved are returned, and the truncated tail says "cancelled". L04's 800
  // R_out tuples make 200 morsels per probe, so hit 300 lands in the second
  // full check, after the first answer is proved.
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  opts.fault_spec = "morsel-worker=cancel@300";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  const TupleSet rout = TableToTupleSet(workload_[3].rout);
  auto answers = engine.ReverseAll(workload_[3].rout, 3).ValueOrDie();
  ASSERT_GE(answers.size(), 2u);
  EXPECT_TRUE(answers.front().found);
  for (size_t k = 0; k < answers.size(); ++k) {
    if (answers[k].found) {
      Table regen = ExecuteToTable(db_, answers[k].query, "regen").ValueOrDie();
      EXPECT_TRUE(IsSubsetOf(rout, TableToTupleSet(regen))) << answers[k].sql;
    } else {
      EXPECT_EQ(k, answers.size() - 1) << "unfound entry not last";
    }
  }
  // The fault took effect: the search ended cancelled.
  EXPECT_FALSE(answers.back().found);
  EXPECT_EQ(answers.back().failure_reason, "cancelled");
  EXPECT_TRUE(answers.back().stats.cancelled);
}

TEST_F(ParallelQreTest, MorselWorkerAllocFailDismissesCandidatesOnly) {
  // An injected alloc-fail at the morsel-worker site is candidate-local: the
  // affected candidate is dismissed (kError), the search carries on and ends
  // cleanly — never as a whole-search memory abort, never deadlocked. The
  // rule fails only the second morsel, inside the first candidate's probe,
  // so the next candidate proves an answer.
  QreOptions opts;
  opts.variant = QreVariant::kSuperset;
  opts.fault_spec = "morsel-worker=alloc-fail@2..2";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[3].rout).ValueOrDie();
  EXPECT_GT(a.stats.candidates_validated, 1u);
  EXPECT_NE(a.failure_reason, "memory budget exceeded");
  ExpectConsistentStats(a.stats, "morsel alloc-fail");
  ASSERT_TRUE(a.found);
  Table regen = ExecuteToTable(db_, a.query, "regen").ValueOrDie();
  EXPECT_TRUE(IsSubsetOf(TableToTupleSet(workload_[3].rout),
                         TableToTupleSet(regen)));
}

TEST_F(ParallelQreTest, MorselWorkerDelayChangesNothing) {
  // A delay widening the morsel race windows must leave the answer
  // byte-identical (the sanitizer jobs run this with TSan).
  FastQre reference_engine(&db_, QreOptions());
  QreAnswer reference =
      reference_engine.Reverse(workload_[8].rout).ValueOrDie();
  QreOptions opts;
  opts.fault_spec = "morsel-worker=delay@1";
  opts.intra_candidate_threads = 4;
  opts.morsel_size = 4;
  opts.intra_row_threshold = 1;
  FastQre engine(&db_, opts);
  QreAnswer got = engine.Reverse(workload_[8].rout).ValueOrDie();
  EXPECT_EQ(got.found, reference.found);
  EXPECT_EQ(got.sql, reference.sql);
  EXPECT_EQ(got.failure_reason, reference.failure_reason);
}

TEST_F(ParallelQreTest, ZeroAndNegativeThreadsBehaveAsSerial) {
  for (int threads : {0, -3}) {
    QreOptions opts;
    opts.validation_threads = threads;
    FastQre engine(&db_, opts);
    QreAnswer a = engine.Reverse(workload_[1].rout).ValueOrDie();
    EXPECT_TRUE(a.found);
  }
}

TEST_F(ParallelQreTest, ExpiredBudgetFailsHonestlyInParallel) {
  QreOptions opts;
  opts.validation_threads = 4;
  opts.time_budget_seconds = 1e-9;  // expires immediately
  FastQre engine(&db_, opts);
  QreAnswer a = engine.Reverse(workload_[9].rout).ValueOrDie();
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.failure_reason, "time budget exceeded");
}

// ---- Threading primitive unit tests ----------------------------------------

TEST(BoundedQueueTest, FifoThroughManyProducersAndConsumers) {
  BoundedQueue<int> q(4);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<int> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int v;
      while (q.Pop(&v)) {
        sum += v;
        ++count;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueueTest, CloseUnblocksProducersAndDrainsConsumers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(42));
  std::thread blocked([&] { EXPECT_FALSE(q.Push(43)); });  // queue is full
  q.Close();
  blocked.join();
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // buffered item still drains after Close
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(q.Pop(&v));
}

TEST(RunMorselsTest, RunsEveryMorselExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(100);
  RunMorsels(&pool, 3, counts.size(), [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(RunMorselsTest, NullPoolAndZeroMorselsRunInline) {
  std::vector<int> counts(50, 0);
  RunMorsels(nullptr, 4, counts.size(), [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << i;  // serial fallback: in order, once each
  }
  bool called = false;
  RunMorsels(nullptr, 4, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(RunMorselsTest, ConcurrentBatchesOnSharedPoolBothComplete) {
  // Two candidates sharing one single-threaded pool: each batch completes
  // because the dispatching thread drains its own counter — pool capacity
  // can delay helpers but never deadlock a batch (DESIGN.md §12).
  ThreadPool pool(1);
  std::atomic<int> total{0};
  std::thread t1([&] { RunMorsels(&pool, 1, 64, [&](size_t) { ++total; }); });
  std::thread t2([&] { RunMorsels(&pool, 1, 64, [&](size_t) { ++total; }); });
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 128);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ++ran; });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
  // The pool stays usable after Wait().
  pool.Submit([&ran] { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran.load(), 101);
}

}  // namespace
}  // namespace fastqre
