// Unit tests for the cross-candidate subplan memoization cache
// (DESIGN.md §13) — admission, LRU eviction, budget enforcement, pinned
// readers, and governor accounting — plus the interrupt regression for the
// hash-index builds that block execution triggers: an interrupt must land
// inside a large build (every kInterruptPollMask + 1 rows), leave nothing
// published, and keep the cache slot rebuildable.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/interrupt.h"
#include "common/resource_governor.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/subplan_cache.h"
#include "storage/database.h"

namespace fastqre {
namespace {

// A handle over `n` binding rows of width 2, `bytes` resident bytes.
SubplanCache::Handle MakeTable(size_t n, size_t bytes) {
  auto t = std::make_shared<SubplanTable>();
  t->width = 2;
  t->rows.assign(n * t->width, RowId{0});
  t->bytes = bytes;
  return t;
}

TEST(SubplanCache, InsertLookupRoundTrip) {
  SubplanCache cache(/*budget_bytes=*/1 << 20, /*admission=*/0);
  SubplanCache::Signature sig = {1, 2, 3};
  EXPECT_EQ(cache.Lookup(sig), nullptr);
  EXPECT_TRUE(cache.Insert(sig, MakeTable(4, 64)));
  SubplanCache::Handle got = cache.Lookup(sig);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->rows.size(), 8u);
  EXPECT_EQ(cache.bytes(), 64u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SubplanCache, AdmissionThresholdDelaysStore) {
  // admission=2: a prefix must be looked up twice before an insert sticks —
  // one-shot prefixes never pay the snapshot copy.
  SubplanCache cache(/*budget_bytes=*/1 << 20, /*admission=*/2);
  SubplanCache::Signature sig = {7};
  EXPECT_EQ(cache.Lookup(sig), nullptr);  // use 1
  EXPECT_FALSE(cache.WantsInsert(sig));
  EXPECT_FALSE(cache.Insert(sig, MakeTable(1, 16)));
  EXPECT_EQ(cache.Lookup(sig), nullptr);  // use 2
  EXPECT_TRUE(cache.WantsInsert(sig));
  EXPECT_TRUE(cache.Insert(sig, MakeTable(1, 16)));
  EXPECT_NE(cache.Lookup(sig), nullptr);
}

TEST(SubplanCache, LruEvictionRespectsBudget) {
  SubplanCache cache(/*budget_bytes=*/100, /*admission=*/0);
  EXPECT_TRUE(cache.Insert({1}, MakeTable(1, 60)));
  EXPECT_TRUE(cache.Insert({2}, MakeTable(1, 60)));  // evicts {1}
  EXPECT_LE(cache.bytes(), 100u);
  EXPECT_EQ(cache.Lookup({1}), nullptr);
  EXPECT_NE(cache.Lookup({2}), nullptr);
  EXPECT_GE(cache.evictions(), 1u);

  // A table larger than the whole budget is refused outright.
  EXPECT_FALSE(cache.Insert({3}, MakeTable(1, 101)));
  EXPECT_EQ(cache.Lookup({3}), nullptr);
}

TEST(SubplanCache, EvictionNeverInvalidatesPinnedReaders) {
  SubplanCache cache(/*budget_bytes=*/1 << 20, /*admission=*/0);
  ASSERT_TRUE(cache.Insert({5}, MakeTable(3, 48)));
  SubplanCache::Handle pinned = cache.Lookup({5});
  ASSERT_NE(pinned, nullptr);
  cache.ShrinkTo(0);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Lookup({5}), nullptr);
  // The pinned handle still reads the full table.
  EXPECT_EQ(pinned->rows.size(), 6u);
}

TEST(SubplanCache, GovernorChargedOnInsertReleasedOnEviction) {
  auto governor = std::make_shared<ResourceGovernor>(/*budget_bytes=*/0);
  SubplanCache cache(/*budget_bytes=*/1 << 20, /*admission=*/0, governor);
  ASSERT_TRUE(cache.Insert({9}, MakeTable(2, 256)));
  EXPECT_EQ(governor->tracked_bytes(), 256u);
  cache.ShrinkTo(0);
  EXPECT_EQ(governor->tracked_bytes(), 0u);
}

TEST(SubplanCache, RefusedChargeRefusesStore) {
  // Once the degradation ladder reaches pipelined-only, TryCharge refuses
  // and the cache must decline the store without escalating further.
  auto governor = std::make_shared<ResourceGovernor>(/*budget_bytes=*/1);
  governor->Charge(1 << 20, "index-build");  // blow the budget: level >= 2
  ASSERT_FALSE(governor->materialization_allowed());
  SubplanCache cache(/*budget_bytes=*/1 << 20, /*admission=*/0, governor);
  EXPECT_FALSE(cache.Insert({4}, MakeTable(2, 64)));
  EXPECT_EQ(cache.Lookup({4}), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
}

// ---- Interrupt regression: hash-join index builds ---------------------------

// A database whose first table is large enough that an index build crosses
// several interrupt-poll strides.
Database BigTableDb() {
  RandomDbOptions opts;
  opts.seed = 11;
  opts.num_tables = 2;
  opts.min_rows = 3 * (kInterruptPollMask + 1);
  opts.max_rows = 3 * (kInterruptPollMask + 1) + 10;
  return BuildRandomDb(opts).ValueOrDie();
}

TEST(IndexBuildInterrupt, PolledInsideTheBuildNotAfterIt) {
  Database db = BigTableDb();
  size_t polls = 0;
  const HashIndex* idx = db.TryGetOrBuildIndex(
      0, {0}, [&polls] {
        ++polls;
        return false;
      });
  ASSERT_NE(idx, nullptr);
  // One poll per kInterruptPollMask + 1 rows: a 3-stride table must poll at
  // least 3 times *during* the build, not once around it.
  EXPECT_GE(polls, 3u);
}

TEST(IndexBuildInterrupt, AbortPublishesNothingAndSlotStaysRebuildable) {
  Database db = BigTableDb();
  // Fire on the second poll: the build starts, then aborts mid-scan.
  size_t polls = 0;
  const HashIndex* aborted = db.TryGetOrBuildIndex(
      0, {0}, [&polls] { return ++polls >= 2; });
  EXPECT_EQ(aborted, nullptr);
  EXPECT_GE(polls, 2u);
  EXPECT_EQ(db.index_stats().indexes_built.value(), 0u);
  // The slot was handed back: a later caller rebuilds successfully.
  const HashIndex* rebuilt = db.TryGetOrBuildIndex(0, {0}, {});
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(db.index_stats().indexes_built.value(), 1u);
}

TEST(IndexBuildInterrupt, ExecuteBlockAbortsCleanlyAtEveryPollDepth) {
  // The regression this PR fixes: ExecuteBlock's hash-join build side used
  // to run to completion before the interrupt was consulted. Sweeping the
  // firing poll across the call's whole poll sequence lands aborts inside
  // the scan morsels AND inside the index build (a 3-stride table polls >= 3
  // times there); every abort must surface as ResourceExhausted, publish no
  // half-built index the rerun could not rebuild, and leave the database
  // fully usable.
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  for (size_t fire_at : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{16}}) {
    // Fresh database per depth: the lazy index cache must start unbuilt for
    // the build-side polls to exist at all.
    Database db = BigTableDb();
    Rng qrng(13);
    auto wq = RandomCpjQuery(db, &qrng, q_opts);
    ASSERT_TRUE(wq.ok());
    size_t polls = 0;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls, fire_at] { return ++polls >= fire_at; });
    SCOPED_TRACE("fire_at=" + std::to_string(fire_at));
    if (polls < fire_at) {
      // The whole call finished within fewer polls; nothing to abort.
      EXPECT_TRUE(r.ok());
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    // The same call without an interrupt succeeds on the same database.
    EXPECT_TRUE(ExecuteBlock(db, wq->query, "block").ok());
  }
}

TEST(IndexBuildInterrupt, GuardWalkAbortsCleanlyAtEveryPollDepth) {
  // Guard-path twin of the sweep above: the exact extras check resolves
  // every level's index before its walk, so early poll depths land in the
  // scan and the builds and later ones in the walk. Every abort must surface
  // as ResourceExhausted, publish nothing to the cache, and leave the
  // governor balanced; the same call without an interrupt then succeeds.
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2;
  q_opts.min_rout_rows = 0;
  for (size_t fire_at : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{16}, size_t{64}}) {
    SCOPED_TRACE("fire_at=" + std::to_string(fire_at));
    // The guard comes from a twin database, so this one's indexes start
    // unbuilt and the build-side polls exist.
    Database twin = BigTableDb();
    Rng twin_rng(13);
    auto twin_q = RandomCpjQuery(twin, &twin_rng, q_opts);
    ASSERT_TRUE(twin_q.ok());
    const TupleSet guard = TableToTupleSet(
        ExecuteBlock(twin, twin_q->query, "block").ValueOrDie());

    Database db = BigTableDb();
    Rng qrng(13);
    auto wq = RandomCpjQuery(db, &qrng, q_opts);
    ASSERT_TRUE(wq.ok());
    auto governor = std::make_shared<ResourceGovernor>(0);
    SubplanCache cache(/*budget_bytes=*/64 << 20, /*admission=*/0, governor);
    ExecPolicy p;
    p.subplan_cache = &cache;
    p.governor = governor;
    size_t polls = 0;
    bool violated = true;
    auto r = ExecuteBlock(db, wq->query, "block",
                          [&polls, fire_at] { return ++polls >= fire_at; }, p,
                          &guard, &violated);
    if (polls < fire_at) {
      EXPECT_TRUE(r.ok());
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(governor->tracked_bytes(), 0u);
    auto rerun = ExecuteBlock(db, wq->query, "block", {}, p, &guard, &violated);
    ASSERT_TRUE(rerun.ok());
    EXPECT_FALSE(violated);
    EXPECT_EQ(governor->tracked_bytes(), cache.bytes());
  }
}

}  // namespace
}  // namespace fastqre
