// Differential harness for the block executor's guard path, the exact
// extras check (DESIGN.md §13): a depth-first walk over the join plan that
// stops at the first projected tuple outside the guard set.
//
// Over the random-db scenarios of the executor property test (2-4
// instances), every {guard} x {cache state} x {SIP} x {morsel size} cell
// must report a violation exactly when the brute-force result is not a
// subset of the guard, return the guard-less table byte-for-byte when it
// reports none, reach the same outcome in every cache state, and leave the
// governor's tracked bytes at rest. Further cases pin the early exit as an
// enumeration count, the guard-less call's whole-join cost and cache
// bypass, the interface-dedup bail-out, and sibling guard queries from four
// threads against one shared cache and database.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "brute_force.h"
#include "common/resource_governor.h"
#include "common/rng.h"
#include "datagen/randomdb.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/compare.h"
#include "engine/subplan_cache.h"
#include "storage/csv.h"

namespace fastqre {
namespace {

// What one guarded call concluded: its status code, the verdict, and the
// returned table as CSV when the call reported no violation.
struct Outcome {
  StatusCode code = StatusCode::kOk;
  bool violated = false;
  std::string csv;

  bool operator==(const Outcome& o) const {
    return code == o.code && violated == o.violated && csv == o.csv;
  }
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{code " << static_cast<int>(o.code)
            << ", violated " << o.violated << ", " << o.csv.size()
            << " csv bytes}";
}

Outcome RunGuarded(const Database& db, const PJQuery& q, const TupleSet& guard,
                   const ExecPolicy& policy, BlockRunStats* stats = nullptr) {
  bool violated = false;
  auto r = ExecuteBlock(db, q, "block", {}, policy, &guard, &violated, stats);
  Outcome o;
  if (!r.ok()) {
    o.code = r.status().code();
    return o;
  }
  o.violated = violated;
  if (!violated) o.csv = TableToCsv(*r);
  return o;
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

// `set` plus tuples no dictionary of a small test database contains.
TupleSet WithAbsent(const TupleSet& set, size_t width) {
  TupleSet out(width);
  for (auto t : set) out.insert(t);
  for (ValueId v : {ValueId{900'000'001}, ValueId{900'000'002}}) {
    out.insert(std::vector<ValueId>(width, v));
  }
  return out;
}

// The same joins with the projection list reversed and its first column
// repeated: every prefix signature is shared, the output differs.
PJQuery Sibling(const PJQuery& q) {
  PJQuery s;
  for (TableId t : q.instances()) s.AddInstance(t);
  for (const auto& j : q.joins()) s.AddJoin(j.a, j.col_a, j.b, j.col_b);
  const auto& proj = q.projections();
  for (auto it = proj.rbegin(); it != proj.rend(); ++it) {
    s.AddProjection(it->instance, it->column);
  }
  s.AddProjection(proj[0].instance, proj[0].column);
  for (const auto& sel : q.selections()) {
    s.AddSelection(sel.instance, sel.column, sel.value);
  }
  return s;
}

// Runs `q` guard-less, returning its distinct result in table order.
TupleSet BlockResult(const Database& db, const PJQuery& q) {
  return TableToTupleSet(ExecuteBlock(db, q, "block").ValueOrDie());
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

class GuardWalkDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuardWalkDifferential, MatrixAgreesWithBruteForce) {
  const uint64_t seed = GetParam();
  Database db = SeededRandomDb(seed);
  Rng rng(seed * 7919 + 5);
  RandomQueryOptions q_opts;
  q_opts.num_instances = 2 + static_cast<int>(seed % 3);
  q_opts.num_projections = 2;
  q_opts.min_rout_rows = 0;
  // Shared across the seed's trials, so entries evict one another.
  auto tiny_governor = std::make_shared<ResourceGovernor>(0);
  SubplanCache tiny(/*budget_bytes=*/512, /*admission=*/0, tiny_governor);
  for (int trial = 0; trial < 5; ++trial) {
    // Odd trials leave some instances unprojected, so levels that only
    // prove existence appear.
    q_opts.project_every_instance = trial % 2 == 0;
    auto wq = RandomCpjQuery(db, &rng, q_opts);
    if (!wq.ok()) continue;
    const PJQuery& q = wq->query;
    const PJQuery sibling = Sibling(q);
    const TupleSet expected = BruteForce(db, q);
    const TupleSet result = BlockResult(db, q);
    ASSERT_EQ(result, expected) << q.ToSql(db);
    const std::string baseline =
        TableToCsv(ExecuteBlock(db, q, "block").ValueOrDie());
    const TupleSet sibling_result = BlockResult(db, sibling);
    const size_t width = q.projections().size();

    // Stops the walk at its first leaf, whenever there is one.
    const TupleSet first_stop = result.empty() ? result : Without(result, 0);
    std::vector<std::pair<std::string, TupleSet>> guards;
    guards.emplace_back("result", result);
    if (!result.empty()) {
      guards.emplace_back("minus-first", first_stop);
      guards.emplace_back("minus-middle", Without(result, result.size() / 2));
      guards.emplace_back("minus-last", Without(result, result.size() - 1));
    }
    guards.emplace_back("plus-absent", WithAbsent(result, width));

    for (const auto& [guard_name, guard] : guards) {
      const bool want_violation = !IsSubsetOf(expected, guard);
      for (bool sip : {false, true}) {
        for (size_t morsel : {size_t{1}, size_t{7}, size_t{2048}}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                       std::to_string(trial) + " guard " + guard_name +
                       " sip " + std::to_string(sip) + " morsel " +
                       std::to_string(morsel) + "\n" + q.ToSql(db));
          ExecPolicy base;
          base.use_sip = sip;
          base.morsel_size = morsel;

          // Runs the case under `cache` (may be null), charging `governor`,
          // after `warm` (may be null) ran against the same cache and
          // reported `warm_violates`.
          BlockRunStats stats;
          auto run = [&](SubplanCache* cache,
                         const std::shared_ptr<ResourceGovernor>& governor,
                         const PJQuery* warm, const TupleSet* warm_guard,
                         bool warm_violates) {
            ExecPolicy p = base;
            p.subplan_cache = cache;
            p.governor = governor;
            if (warm != nullptr) {
              const Outcome w = RunGuarded(db, *warm, *warm_guard, p);
              EXPECT_EQ(w.code, StatusCode::kOk);
              EXPECT_EQ(w.violated, warm_violates);
              EXPECT_EQ(governor->tracked_bytes(), cache->bytes());
            }
            stats = BlockRunStats();
            const Outcome o = RunGuarded(db, q, guard, p, &stats);
            // Every block-buffer byte is released; only the cache's
            // resident entries stay charged.
            EXPECT_EQ(governor->tracked_bytes(),
                      cache != nullptr ? cache->bytes() : 0u);
            return o;
          };

          auto none_gov = std::make_shared<ResourceGovernor>(0);
          const Outcome none =
              run(nullptr, none_gov, nullptr, nullptr, false);
          EXPECT_EQ(none.code, StatusCode::kOk);
          EXPECT_EQ(none.violated, want_violation);
          if (!none.violated) {
            EXPECT_EQ(none.csv, baseline);
          }

          auto fresh_gov = std::make_shared<ResourceGovernor>(0);
          SubplanCache fresh(64 << 20, 0, fresh_gov);
          EXPECT_EQ(run(&fresh, fresh_gov, nullptr, nullptr, false), none)
              << "fresh";

          // Warmed by the same query under the guard that stops at its
          // first tuple: that run must store no partial level, only its
          // complete scan, which this run resumes from.
          auto self_gov = std::make_shared<ResourceGovernor>(0);
          SubplanCache warm_self(64 << 20, 0, self_gov);
          EXPECT_EQ(run(&warm_self, self_gov, &q, &first_stop,
                        !result.empty()),
                    none)
              << "warmed by the same query";
          EXPECT_EQ(stats.subplan_hits, 1u);

          // The sibling shares every prefix signature, and its completed
          // walk stored every level.
          auto sib_gov = std::make_shared<ResourceGovernor>(0);
          SubplanCache warm_sibling(64 << 20, 0, sib_gov);
          EXPECT_EQ(run(&warm_sibling, sib_gov, &sibling, &sibling_result,
                        false),
                    none)
              << "warmed by a sibling";
          EXPECT_EQ(stats.subplan_hits, 1u);

          EXPECT_EQ(run(&tiny, tiny_governor, nullptr, nullptr, false), none)
              << "512 B evicting";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardWalkDifferential,
                         ::testing::Range<uint64_t>(1, 26));

// A chain a -> b -> c: each a row has `fan_out` b rows; b row r joins c row
// r % `mod` and carries tag r % `mod`, so `mod` is the number of interface
// classes of the b level (and of distinct result tuples).
Database ChainDb(size_t a_rows, size_t fan_out, size_t mod) {
  Database db;
  const TableId a = db.AddTable("a").ValueOrDie();
  const TableId b = db.AddTable("b").ValueOrDie();
  const TableId c = db.AddTable("c").ValueOrDie();
  Table& ta = db.table(a);
  EXPECT_TRUE(ta.AddColumn("id", ValueType::kInt64).ok());
  Table& tb = db.table(b);
  EXPECT_TRUE(tb.AddColumn("a_id", ValueType::kInt64).ok());
  EXPECT_TRUE(tb.AddColumn("c_id", ValueType::kInt64).ok());
  EXPECT_TRUE(tb.AddColumn("tag", ValueType::kInt64).ok());
  Table& tc = db.table(c);
  EXPECT_TRUE(tc.AddColumn("id", ValueType::kInt64).ok());
  EXPECT_TRUE(tc.AddColumn("val", ValueType::kInt64).ok());
  const auto m = static_cast<int64_t>(mod);
  const auto fan = static_cast<int64_t>(fan_out);
  for (int64_t i = 0; i < static_cast<int64_t>(a_rows); ++i) {
    EXPECT_TRUE(ta.AppendRow({Value(i)}).ok());
  }
  for (int64_t r = 0; r < static_cast<int64_t>(a_rows) * fan; ++r) {
    EXPECT_TRUE(
        tb.AppendRow({Value(r / fan), Value(r % m), Value(r % m)}).ok());
  }
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(tc.AppendRow({Value(i), Value(i % 7)}).ok());
  }
  return db;
}

// SELECT b.tag, c.val FROM a, b, c WHERE a.id = b.a_id AND b.c_id = c.id.
// Instance 0 (a, the smallest table) is placed first, then b, then c.
PJQuery ChainQuery() {
  PJQuery q;
  const InstanceId ia = q.AddInstance(0);
  const InstanceId ib = q.AddInstance(1);
  const InstanceId ic = q.AddInstance(2);
  q.AddJoin(ia, 0, ib, 0);
  q.AddJoin(ib, 1, ic, 0);
  q.AddProjection(ib, 2);
  q.AddProjection(ic, 1);
  return q;
}

// The early exit as a count, not a timing: the second-to-last level fans out
// 1000x per driving row and the first leaf falls outside the guard. A walk
// meets that leaf after one posting list of the fan-out; materializing the
// level first would enumerate every driving row's list (4x the fan-out).
TEST(GuardWalk, FirstExtraTupleStopsBeforeTheFanOutMaterializes) {
  constexpr size_t kFanOut = 1000;
  Database db = ChainDb(/*a_rows=*/4, kFanOut, /*mod=*/4 * kFanOut);
  const PJQuery q = ChainQuery();
  const TupleSet result = BlockResult(db, q);
  ASSERT_EQ(result.size(), 4 * kFanOut);
  const TupleSet guard = Without(result, 0);
  for (bool with_cache : {false, true}) {
    SubplanCache cache(64 << 20, 0);
    ExecPolicy p;
    p.subplan_cache = with_cache ? &cache : nullptr;
    BlockRunStats stats;
    const Outcome o = RunGuarded(db, q, guard, p, &stats);
    ASSERT_EQ(o.code, StatusCode::kOk);
    EXPECT_TRUE(o.violated);
    EXPECT_LT(stats.rows_enumerated, 2 * kFanOut) << "cache " << with_cache;
  }
}

// The two call shapes as counts on an 8 x 1000 fan-out with 3 interface
// classes. A guard-less call pays the whole join: 8,000 b matches, then one
// c match per b row. It neither reads nor fills a cache in its policy. The
// guarded call collapses the b level to its 3 classes: 8,000 b matches,
// then 3 c matches.
TEST(GuardWalk, GuardlessCallPaysTheWholeJoinAndBypassesTheCache) {
  Database db = ChainDb(/*a_rows=*/8, /*fan_out=*/1000, /*mod=*/3);
  const PJQuery q = ChainQuery();
  BlockRunStats plain;
  auto table =
      ExecuteBlock(db, q, "block", {}, ExecPolicy(), nullptr, nullptr, &plain);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(plain.rows_enumerated, 16000u);

  BlockRunStats guarded;
  const Outcome o =
      RunGuarded(db, q, TableToTupleSet(*table), ExecPolicy(), &guarded);
  ASSERT_EQ(o.code, StatusCode::kOk);
  EXPECT_FALSE(o.violated);
  EXPECT_EQ(o.csv, TableToCsv(*table));
  EXPECT_EQ(guarded.rows_enumerated, 8003u);

  SubplanCache cache(64 << 20, 0);
  ExecPolicy p;
  p.subplan_cache = &cache;
  BlockRunStats cached;
  auto again = ExecuteBlock(db, q, "block", {}, p, nullptr, nullptr, &cached);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(TableToCsv(*again), TableToCsv(*table));
  EXPECT_EQ(cached.rows_enumerated, 16000u);
  EXPECT_EQ(cached.subplan_hits, 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

// Past kDedupSampleRows bindings a level that barely collapses stops
// deduping; a level that collapses keeps going. Either way the table and
// the verdicts must match the guard-less run, cold and warm.
TEST(GuardWalk, DedupBailOutKeepsTableAndVerdicts) {
  for (size_t mod : {size_t{3}, size_t{8000}}) {
    SCOPED_TRACE("mod " + std::to_string(mod));
    Database db = ChainDb(/*a_rows=*/8, /*fan_out=*/1000, mod);
    const PJQuery q = ChainQuery();
    const std::string baseline =
        TableToCsv(ExecuteBlock(db, q, "block").ValueOrDie());
    const TupleSet result = BlockResult(db, q);
    SubplanCache cache(64 << 20, 0);
    for (int round = 0; round < 2; ++round) {  // cold, then warm
      ExecPolicy p;
      p.subplan_cache = &cache;
      const Outcome full = RunGuarded(db, q, result, p);
      ASSERT_EQ(full.code, StatusCode::kOk);
      EXPECT_FALSE(full.violated);
      EXPECT_EQ(full.csv, baseline);
      const Outcome cut =
          RunGuarded(db, q, Without(result, result.size() - 1), p);
      EXPECT_TRUE(cut.violated);
    }
  }
}

// Four threads run sibling guard queries against one shared SubplanCache
// and one Database whose indexes start unbuilt; every verdict and table
// must equal the serial, cache-less one.
TEST(GuardWalk, ConcurrentSiblingsMatchSerialVerdicts) {
  const TpchOptions tpch{.scale_factor = 0.001, .seed = 3};
  Database serial_db = BuildTpch(tpch).ValueOrDie();
  auto workload = StandardTpchWorkload(serial_db).ValueOrDie();

  struct Job {
    PJQuery query;
    TupleSet guard;
    Outcome serial;
  };
  std::vector<Job> jobs;
  for (const auto& wq : workload) {
    for (const PJQuery& q : {wq.query, Sibling(wq.query)}) {
      const TupleSet result = BlockResult(serial_db, q);
      jobs.push_back({q, result, {}});
      if (!result.empty()) jobs.push_back({q, Without(result, 0), {}});
    }
  }
  for (Job& job : jobs) {
    job.serial = RunGuarded(serial_db, job.query, job.guard, ExecPolicy());
    ASSERT_EQ(job.serial.code, StatusCode::kOk);
  }

  Database shared_db = BuildTpch(tpch).ValueOrDie();
  SubplanCache cache(64 << 20, 0);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<Outcome>> got(kThreads,
                                        std::vector<Outcome>(jobs.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecPolicy p;
      p.subplan_cache = &cache;
      // Each thread starts at a different job, so siblings race.
      for (size_t k = 0; k < jobs.size(); ++k) {
        const size_t j = (k + t * jobs.size() / kThreads) % jobs.size();
        got[t][j] = RunGuarded(shared_db, jobs[j].query, jobs[j].guard, p);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(got[t][j], jobs[j].serial)
          << "thread " << t << " job " << j << "\n"
          << jobs[j].query.ToSql(serial_db);
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace fastqre
