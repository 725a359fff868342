// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// dictionary interning, distinct-set construction, hash-index build/probe,
// pipelined join execution, column cover, CGM discovery, walk discovery.
#include <benchmark/benchmark.h>

#include "common/resource_governor.h"
#include "common/rng.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/block_executor.h"
#include "engine/builder.h"
#include "engine/executor.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/fastqre.h"
#include "qre/mapping.h"
#include "qre/walks.h"

namespace fastqre {
namespace {

void BM_DictionaryIntern(benchmark::State& state) {
  Rng rng(1);
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) {
    values.emplace_back(static_cast<int64_t>(rng.Uniform(5000)));
  }
  for (auto _ : state) {
    Dictionary dict;
    for (const Value& v : values) benchmark::DoNotOptimize(dict.Intern(v));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_DictionaryIntern);

void BM_ColumnDistinctSet(benchmark::State& state) {
  auto dict = std::make_shared<Dictionary>();
  Table t("t", dict);
  (void)t.AddColumn("a", ValueType::kInt64);
  Rng rng(2);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)t.AppendRow({Value(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  for (auto _ : state) {
    // Copy the column to defeat the cache.
    Column c = t.column(0);
    benchmark::DoNotOptimize(c.NumDistinct());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnDistinctSet)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashIndexBuild(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.01, .seed = 1}).ValueOrDie();
  const Table& lineitem = db.table(*db.FindTable("lineitem"));
  for (auto _ : state) {
    HashIndex index(lineitem, {0});
    benchmark::DoNotOptimize(index.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * lineitem.num_rows());
}
BENCHMARK(BM_HashIndexBuild);

void BM_HashIndexProbe(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.01, .seed = 1}).ValueOrDie();
  const Table& lineitem = db.table(*db.FindTable("lineitem"));
  HashIndex index(lineitem, {0});
  std::vector<ValueId> keys;
  for (RowId r = 0; r < lineitem.num_rows(); r += 7) {
    keys.push_back(lineitem.column(0).at(r));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup1(keys[i++ % keys.size()]).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexProbe);

void BM_LookupBatch(benchmark::State& state) {
  // Vectorized counterpart of BM_HashIndexProbe: one LookupBatch call per
  // morsel of keys instead of one Lookup1 per key (DESIGN.md §12). Unlike
  // Lookup1 (which hands back a reference), LookupBatch materializes the
  // matching rows into a flat buffer — the executor needs them gathered
  // anyway. Arg = key stride: 1 keeps the generator's natural row order
  // (lineitems of one order are adjacent, so duplicate keys hit the
  // memoized fast path, as in the executor's reach-driven probes); 7
  // destroys adjacency (worst case, every key pays a full hash probe).
  Database db = BuildTpch({.scale_factor = 0.01, .seed = 1}).ValueOrDie();
  const Table& lineitem = db.table(*db.FindTable("lineitem"));
  HashIndex index(lineitem, {0});
  const size_t stride = static_cast<size_t>(state.range(0));
  std::vector<ValueId> keys;
  for (RowId r = 0; r < lineitem.num_rows(); r += stride) {
    keys.push_back(lineitem.column(0).at(r));
  }
  // One morsel of keys per call, as the cursor's reach-driven build probes.
  BatchMatches out;
  for (auto _ : state) {
    for (size_t lo = 0; lo < keys.size(); lo += kDefaultMorselSize) {
      index.LookupBatch(keys.data() + lo,
                        std::min(kDefaultMorselSize, keys.size() - lo), &out);
      benchmark::DoNotOptimize(out.rows.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_LookupBatch)->Arg(1)->Arg(7);

void BM_MorselFullCheck(benchmark::State& state) {
  // The all-tuple subset-probe pass of one candidate's full check: one
  // fully-bound point probe per R_out tuple. Arg(0) = the legacy kernel
  // (replan a fresh cursor per tuple); Arg(1) = the morsel kernel (plan
  // once, Rebind per tuple) — the E14 convoy-tail mechanism isolated.
  Database db = BuildTpch({.scale_factor = 0.01, .seed = 1}).ValueOrDie();
  QueryBuilder b(&db);
  InstanceId o = b.Instance("orders");
  InstanceId c = b.Instance("customer");
  b.Join(o, "o_custkey", c, "c_custkey");
  b.Project(o, "o_orderkey");
  b.Project(c, "c_name");
  PJQuery q = b.Build().ValueOrDie();
  Table rout = ExecuteToTable(db, q, "rout").ValueOrDie();
  const auto projections = q.projections();
  const bool batched = state.range(0) != 0;
  uint64_t probes = 0;
  for (auto _ : state) {
    std::vector<ValueId> row;
    if (batched) {
      PJQuery probe = q;
      for (size_t j = 0; j < projections.size(); ++j) {
        probe.AddSelection(projections[j].instance, projections[j].column,
                           rout.column(static_cast<ColumnId>(j)).at(0));
      }
      auto cursor = QueryCursor::Create(db, probe).ValueOrDie();
      std::vector<ValueId> vals(projections.size());
      for (RowId r = 0; r < rout.num_rows(); ++r) {
        for (size_t j = 0; j < vals.size(); ++j) {
          vals[j] = rout.column(static_cast<ColumnId>(j)).at(r);
        }
        cursor->Rebind(vals.data(), vals.size());
        benchmark::DoNotOptimize(cursor->Next(&row));
        ++probes;
      }
    } else {
      ExecPolicy scalar;
      scalar.batch_probes = false;
      PJQuery probe = q;
      for (RowId r = 0; r < rout.num_rows(); ++r) {
        probe.ClearSelections();
        for (size_t j = 0; j < projections.size(); ++j) {
          probe.AddSelection(projections[j].instance, projections[j].column,
                             rout.column(static_cast<ColumnId>(j)).at(r));
        }
        auto cursor = QueryCursor::Create(db, probe, {}, {}, scalar).ValueOrDie();
        benchmark::DoNotOptimize(cursor->Next(&row));
        ++probes;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes));
}
BENCHMARK(BM_MorselFullCheck)->Arg(0)->Arg(1);

void BM_JoinExecution(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.005, .seed = 1}).ValueOrDie();
  QueryBuilder b(&db);
  InstanceId o = b.Instance("orders");
  InstanceId l = b.Instance("lineitem");
  InstanceId p = b.Instance("part");
  b.Join(l, "l_orderkey", o, "o_orderkey");
  b.Join(l, "l_partkey", p, "p_partkey");
  b.Project(o, "o_orderkey");
  b.Project(p, "p_name");
  PJQuery q = b.Build().ValueOrDie();
  uint64_t rows = 0;
  for (auto _ : state) {
    auto cursor = QueryCursor::Create(db, q).ValueOrDie();
    std::vector<ValueId> row;
    while (cursor->Next(&row)) ++rows;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinExecution);

void BM_PointProbe(benchmark::State& state) {
  // The workhorse of validation: a fully-bound membership probe.
  Database db = BuildTpch({.scale_factor = 0.005, .seed = 1}).ValueOrDie();
  PJQuery q1 = BuildPaperQuery1(db).ValueOrDie();
  Table rout = ExecuteToTable(db, q1, "rout").ValueOrDie();
  size_t r = 0;
  for (auto _ : state) {
    PJQuery probe = q1;
    const auto& projections = probe.projections();
    for (size_t j = 0; j < projections.size(); ++j) {
      probe.AddSelection(projections[j].instance, projections[j].column,
                         rout.column(j).at(r % rout.num_rows()));
    }
    ++r;
    auto cursor = QueryCursor::Create(db, probe).ValueOrDie();
    std::vector<ValueId> row;
    benchmark::DoNotOptimize(cursor->Next(&row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointProbe);

void BM_ColumnCover(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.005, .seed = 1}).ValueOrDie();
  PJQuery q1 = BuildPaperQuery1(db).ValueOrDie();
  Table rout = ExecuteToTable(db, q1, "rout").ValueOrDie();
  QreOptions opts;
  opts.use_pattern_pruning = state.range(0) != 0;
  for (auto _ : state) {
    QreStats stats;
    benchmark::DoNotOptimize(ComputeColumnCover(db, rout, opts, &stats));
  }
}
BENCHMARK(BM_ColumnCover)->Arg(0)->Arg(1);

void BM_CgmDiscovery(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.005, .seed = 1}).ValueOrDie();
  PJQuery q1 = BuildPaperQuery1(db).ValueOrDie();
  Table rout = ExecuteToTable(db, q1, "rout").ValueOrDie();
  QreOptions opts;
  QreStats cover_stats;
  ColumnCover cover = ComputeColumnCover(db, rout, opts, &cover_stats);
  for (auto _ : state) {
    QreStats stats;
    benchmark::DoNotOptimize(DiscoverCgms(db, rout, cover, opts, &stats));
  }
}
BENCHMARK(BM_CgmDiscovery);

void BM_WalkDiscovery(benchmark::State& state) {
  Database db = BuildTpch({.scale_factor = 0.002, .seed = 1}).ValueOrDie();
  PJQuery q1 = BuildPaperQuery1(db).ValueOrDie();
  Table rout = ExecuteToTable(db, q1, "rout").ValueOrDie();
  QreOptions opts;
  opts.max_walk_length = static_cast<int>(state.range(0));
  QreStats stats;
  ColumnCover cover = ComputeColumnCover(db, rout, opts, &stats);
  CgmSet cgms = DiscoverCgms(db, rout, cover, opts, &stats);
  MappingEnumerator e(&db, &rout, &cover, &cgms, &opts);
  ColumnMapping mapping;
  if (!e.Next(&mapping)) state.SkipWithError("no mapping");
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverWalks(db, mapping, opts));
  }
}
BENCHMARK(BM_WalkDiscovery)->Arg(2)->Arg(3)->Arg(4);

// ---- Resource governor (E13: accounting overhead) ---------------------------

void BM_GovernorChargeRelease(benchmark::State& state) {
  // The primitive cost every governed allocation pays: one optional charge
  // plus the matching release (two relaxed atomic RMWs + a peak CAS).
  ResourceGovernor gov(1ull << 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gov.TryCharge(64 * 1024, "block-buffer"));
    gov.Release(64 * 1024);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GovernorChargeRelease);

void BM_BlockExecGoverned(benchmark::State& state) {
  // The heaviest charged path: full block materialization of a 3-instance
  // join. Arg(0) = no governor attached (every charge short-circuits),
  // Arg(1) = governor attached with an ample budget (real accounting).
  // The delta between the two is the E13 accounting overhead.
  Database db = BuildTpch({.scale_factor = 0.005, .seed = 1}).ValueOrDie();
  QueryBuilder b(&db);
  InstanceId o = b.Instance("orders");
  InstanceId l = b.Instance("lineitem");
  InstanceId p = b.Instance("part");
  b.Join(l, "l_orderkey", o, "o_orderkey");
  b.Join(l, "l_partkey", p, "p_partkey");
  b.Project(o, "o_orderkey");
  b.Project(p, "p_name");
  PJQuery q = b.Build().ValueOrDie();
  std::shared_ptr<ResourceGovernor> gov;
  if (state.range(0) != 0) {
    gov = std::make_shared<ResourceGovernor>(1ull << 30);
    db.AttachGovernor(gov);
  }
  for (auto _ : state) {
    auto result = ExecuteBlock(db, q, "block", nullptr);
    benchmark::DoNotOptimize(result.ok());
  }
  if (gov != nullptr) db.DetachGovernor(gov.get());
}
BENCHMARK(BM_BlockExecGoverned)->Arg(0)->Arg(1);

void BM_ReverseGoverned(benchmark::State& state) {
  // End-to-end reverse engineering with the governor idle (budget 0 =
  // unlimited, accounting still live) vs. an ample configured budget.
  Database db = BuildTpch({.scale_factor = 0.002, .seed = 1}).ValueOrDie();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  QreOptions opts;
  opts.memory_budget_bytes =
      state.range(0) != 0 ? (1ull << 30) : 0;
  for (auto _ : state) {
    FastQre engine(&db, opts);
    auto answer = engine.Reverse(workload[0].rout);
    benchmark::DoNotOptimize(answer.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseGoverned)->Arg(0)->Arg(1);

}  // namespace
}  // namespace fastqre

BENCHMARK_MAIN();
