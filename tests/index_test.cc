// Unit tests for HashIndex lookup behavior: the Lookup1 single-column fast
// path, multi-column lookups over duplicate keys, empty tables, the batched
// LookupBatch kernel, a brute-force property check of the flat CSR layout,
// and concurrent readers of one published index.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <thread>

#include "common/rng.h"
#include "storage/index.h"
#include "storage/table.h"

namespace fastqre {
namespace {

std::vector<RowId> Vec(std::span<const RowId> rows) {
  return {rows.begin(), rows.end()};
}

Table MakeTable(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  Table t("t", std::make_shared<Dictionary>());
  EXPECT_TRUE(t.AddColumn("a", ValueType::kInt64).ok());
  EXPECT_TRUE(t.AddColumn("b", ValueType::kInt64).ok());
  for (const auto& [a, b] : rows) {
    EXPECT_TRUE(t.AppendRow({Value(a), Value(b)}).ok());
  }
  return t;
}

TEST(HashIndexLookup, Lookup1MatchesLookupOnSingleColumn) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}, {3, 10}, {1, 10}});
  HashIndex index(t, {0});
  for (RowId r = 0; r < t.num_rows(); ++r) {
    ValueId key = t.column(0).at(r);
    EXPECT_EQ(Vec(index.Lookup1(key)), Vec(index.Lookup({key})));
  }
  // Duplicate key 1 maps to all three of its rows, in row order.
  ValueId one = t.column(0).at(0);
  EXPECT_EQ(Vec(index.Lookup1(one)), (std::vector<RowId>{0, 2, 4}));
}

TEST(HashIndexLookup, Lookup1MissReturnsEmpty) {
  Table t = MakeTable({{1, 10}});
  HashIndex index(t, {0});
  // An id interned by nobody can't be in the index; kNullValueId is absent
  // too since no row is NULL.
  EXPECT_TRUE(index.Lookup1(kNullValueId).empty());
  EXPECT_TRUE(index.Lookup({kNullValueId}).empty());
}

TEST(HashIndexLookup, MultiColumnDuplicateKeys) {
  // (1,10) appears at rows 0, 3; (1,20) at row 1; (2,10) at row 2.
  Table t = MakeTable({{1, 10}, {1, 20}, {2, 10}, {1, 10}});
  HashIndex index(t, {0, 1});
  EXPECT_EQ(index.num_keys(), 3u);
  auto key = [&](RowId r) {
    return std::vector<ValueId>{t.column(0).at(r), t.column(1).at(r)};
  };
  EXPECT_EQ(Vec(index.Lookup(key(0))), (std::vector<RowId>{0, 3}));
  EXPECT_EQ(Vec(index.Lookup(key(1))), (std::vector<RowId>{1}));
  EXPECT_EQ(Vec(index.Lookup(key(2))), (std::vector<RowId>{2}));
  // Mixed key (2, 20) matches no row even though each part occurs somewhere.
  EXPECT_TRUE(index.Lookup({t.column(0).at(2), t.column(1).at(1)}).empty());
}

TEST(HashIndexLookup, WrongWidthKeyMatchesNothing) {
  Table t = MakeTable({{1, 10}, {1, 20}});
  HashIndex single(t, {0});
  HashIndex multi(t, {0, 1});
  const ValueId a = t.column(0).at(0);
  const ValueId b = t.column(1).at(0);
  EXPECT_TRUE(single.Lookup({a, b}).empty());
  EXPECT_TRUE(multi.Lookup({a}).empty());
  EXPECT_TRUE(multi.Lookup1(a).empty());
}

TEST(HashIndexLookup, EmptyTable) {
  Table t = MakeTable({});
  HashIndex single(t, {0});
  HashIndex multi(t, {0, 1});
  EXPECT_EQ(single.num_keys(), 0u);
  EXPECT_EQ(multi.num_keys(), 0u);
  EXPECT_TRUE(single.Lookup1(kNullValueId).empty());
  EXPECT_TRUE(multi.Lookup({kNullValueId, kNullValueId}).empty());
}

// --- LookupBatch (vectorized probes, DESIGN.md §12) ------------------------

// Flattens a BatchMatches back into per-key vectors for comparison.
std::vector<std::vector<RowId>> Extents(const BatchMatches& m) {
  std::vector<std::vector<RowId>> out(m.num_keys());
  for (size_t i = 0; i < m.num_keys(); ++i) {
    out[i].assign(m.begin_of(i), m.end_of(i));
  }
  return out;
}

TEST(HashIndexLookupBatch, MatchesLookup1OnSingleColumn) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}, {3, 10}, {1, 10}});
  HashIndex index(t, {0});
  // Batch of every row's key, including duplicates adjacent (rows 2 and 4
  // repeat key 1 — the memoized-duplicate fast path) and one guaranteed
  // miss at the end.
  std::vector<ValueId> keys;
  for (RowId r = 0; r < t.num_rows(); ++r) keys.push_back(t.column(0).at(r));
  keys.push_back(kNullValueId);
  BatchMatches out;
  index.LookupBatch(keys.data(), keys.size(), &out);
  ASSERT_EQ(out.num_keys(), keys.size());
  auto extents = Extents(out);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_EQ(extents[i], Vec(index.Lookup1(keys[i]))) << "key " << i;
  }
  EXPECT_TRUE(extents.back().empty());  // the miss
}

TEST(HashIndexLookupBatch, MatchesLookupOnMultiColumn) {
  Table t = MakeTable({{1, 10}, {1, 20}, {2, 10}, {1, 10}});
  HashIndex index(t, {0, 1});
  // Key-major layout, width 2: every row's key plus a mixed miss (2, 20).
  std::vector<ValueId> keys;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    keys.push_back(t.column(0).at(r));
    keys.push_back(t.column(1).at(r));
  }
  keys.push_back(t.column(0).at(2));
  keys.push_back(t.column(1).at(1));
  const size_t n = keys.size() / 2;
  BatchMatches out;
  index.LookupBatch(keys.data(), n, &out);
  ASSERT_EQ(out.num_keys(), n);
  auto extents = Extents(out);
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(extents[i], Vec(index.Lookup({keys[2 * i], keys[2 * i + 1]})))
        << "key " << i;
  }
  EXPECT_TRUE(extents.back().empty());
}

TEST(HashIndexLookupBatch, EmptyBatchAndAllMisses) {
  Table t = MakeTable({{1, 10}, {2, 20}});
  HashIndex index(t, {0});
  BatchMatches out;
  index.LookupBatch(nullptr, 0, &out);
  EXPECT_EQ(out.num_keys(), 0u);
  EXPECT_TRUE(out.rows.empty());
  // All-miss batch: every key absent, every extent empty, offsets intact.
  std::vector<ValueId> misses(5, kNullValueId);
  index.LookupBatch(misses.data(), misses.size(), &out);
  ASSERT_EQ(out.num_keys(), misses.size());
  EXPECT_TRUE(out.rows.empty());
  for (size_t i = 0; i < out.num_keys(); ++i) {
    EXPECT_EQ(out.begin_of(i), out.end_of(i));
  }
}

TEST(HashIndexLookupBatch, DuplicateKeysInOneMorsel) {
  Table t = MakeTable({{1, 10}, {2, 20}, {1, 30}});
  HashIndex index(t, {0});
  ValueId one = t.column(0).at(0);
  ValueId two = t.column(0).at(1);
  // Adjacent and non-adjacent duplicates both reproduce the full extent.
  std::vector<ValueId> keys = {one, one, two, one};
  BatchMatches out;
  index.LookupBatch(keys.data(), keys.size(), &out);
  ASSERT_EQ(out.num_keys(), keys.size());
  auto extents = Extents(out);
  EXPECT_EQ(extents[0], (std::vector<RowId>{0, 2}));
  EXPECT_EQ(extents[1], (std::vector<RowId>{0, 2}));
  EXPECT_EQ(extents[2], (std::vector<RowId>{1}));
  EXPECT_EQ(extents[3], (std::vector<RowId>{0, 2}));
}

TEST(HashIndexLookup, NullIdsAreIndexedLikeValues) {
  Table t("t", std::make_shared<Dictionary>());
  ASSERT_TRUE(t.AddColumn("a", ValueType::kInt64).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  HashIndex index(t, {0});
  EXPECT_EQ(Vec(index.Lookup1(kNullValueId)), (std::vector<RowId>{0, 2}));
}

// --- Property: the flat index against a brute-force map ---------------------

enum class Shape { kRandom, kAllDistinct, kAllEqual };

// A table of `cols` int64 columns and `rows` rows. kRandom draws each cell
// from a domain small enough to make duplicate keys common.
Table RandomTable(Rng* rng, size_t cols, size_t rows, Shape shape) {
  Table t("t", std::make_shared<Dictionary>());
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_TRUE(
        t.AddColumn("c" + std::to_string(c), ValueType::kInt64).ok());
  }
  const int64_t domain = 1 + static_cast<int64_t>(rng->Uniform(8));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < cols; ++c) {
      switch (shape) {
        case Shape::kRandom:
          row.emplace_back(rng->UniformInt(0, domain));
          break;
        case Shape::kAllDistinct:
          row.emplace_back(static_cast<int64_t>(r));
          break;
        case Shape::kAllEqual:
          row.emplace_back(int64_t{7});
          break;
      }
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

using BruteIndex = std::map<std::vector<ValueId>, std::vector<RowId>>;

BruteIndex BruteForce(const Table& t, const std::vector<ColumnId>& cols) {
  BruteIndex out;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    std::vector<ValueId> key;
    for (ColumnId c : cols) key.push_back(t.column(c).at(r));
    out[key].push_back(r);
  }
  return out;
}

// Checks every key of `want` (and a few misses) through Lookup, Lookup1 and
// LookupBatch.
void ExpectMatchesBruteForce(const HashIndex& index, const BruteIndex& want,
                             Rng* rng, const std::string& label) {
  const size_t width = index.columns().size();
  ASSERT_EQ(index.num_keys(), want.size()) << label;
  std::vector<std::vector<ValueId>> probes;
  for (const auto& [key, rows] : want) {
    const std::vector<RowId> got = Vec(index.Lookup(key));
    EXPECT_EQ(got, rows) << label;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << label;
    if (width == 1) {
      EXPECT_EQ(Vec(index.Lookup1(key[0])), rows) << label;
    }
    probes.push_back(key);
  }
  // Misses: ids no table cell interned (the dictionary is dense from 0).
  for (int i = 0; i < 3; ++i) {
    std::vector<ValueId> miss(width, static_cast<ValueId>(1000000 + i));
    EXPECT_TRUE(index.Lookup(miss).empty()) << label;
    probes.push_back(miss);
  }
  // A batch of keys in random order with adjacent duplicates.
  std::vector<std::vector<ValueId>> order;
  for (size_t i = 0; i < 2 * probes.size(); ++i) {
    order.push_back(probes[rng->Uniform(probes.size())]);
    if (rng->Chance(0.3)) order.push_back(order.back());
  }
  std::vector<ValueId> flat;
  for (const auto& k : order) flat.insert(flat.end(), k.begin(), k.end());
  BatchMatches out;
  index.LookupBatch(flat.data(), order.size(), &out);
  ASSERT_EQ(out.num_keys(), order.size()) << label;
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(std::vector<RowId>(out.begin_of(i), out.end_of(i)),
              Vec(index.Lookup(order[i])))
        << label;
  }
}

TEST(HashIndexProperty, MatchesBruteForceMap) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const size_t width = 1 + rng.Uniform(3);
    const size_t total_cols = width + rng.Uniform(2);
    const Shape shape = seed % 5 == 0   ? Shape::kAllDistinct
                        : seed % 5 == 1 ? Shape::kAllEqual
                                        : Shape::kRandom;
    const size_t rows = seed % 7 == 0 ? 0 : rng.Uniform(300);
    Table t = RandomTable(&rng, total_cols, rows, shape);
    // Key columns: a random selection, not necessarily in table order.
    std::vector<ColumnId> cols(total_cols);
    for (size_t c = 0; c < total_cols; ++c) cols[c] = static_cast<ColumnId>(c);
    for (size_t i = total_cols; i > 1; --i) {
      std::swap(cols[i - 1], cols[rng.Uniform(i)]);
    }
    cols.resize(width);
    const std::string label = "seed " + std::to_string(seed);
    HashIndex eager(t, cols);
    ExpectMatchesBruteForce(eager, BruteForce(t, cols), &rng, label);
    auto deferred = HashIndex::Build(t, cols, {});
    ASSERT_NE(deferred, nullptr);
    ExpectMatchesBruteForce(*deferred, BruteForce(t, cols), &rng, label);
    EXPECT_EQ(deferred->EstimatedBytes(), eager.EstimatedBytes()) << label;
  }
}

TEST(HashIndexProperty, EdgeShapesOnEveryWidth) {
  Rng rng(99);
  for (size_t width = 1; width <= 3; ++width) {
    for (Shape shape : {Shape::kAllDistinct, Shape::kAllEqual}) {
      for (size_t rows : {size_t{0}, size_t{1}, size_t{5000}}) {
        Table t = RandomTable(&rng, width, rows, shape);
        std::vector<ColumnId> cols;
        for (size_t c = 0; c < width; ++c) {
          cols.push_back(static_cast<ColumnId>(c));
        }
        const BruteIndex want = BruteForce(t, cols);
        HashIndex index(t, cols);
        const size_t expect_keys =
            rows == 0 ? 0 : (shape == Shape::kAllEqual ? 1 : rows);
        EXPECT_EQ(index.num_keys(), expect_keys);
        ExpectMatchesBruteForce(
            index, want, &rng,
            "width " + std::to_string(width) + " rows " + std::to_string(rows));
      }
    }
  }
}

TEST(HashIndexConcurrency, ConcurrentReadersSeeTheSamePostings) {
  // A published index is read by many validation workers at once; every
  // lookup path is const and must stay read-only (TSan runs this).
  Rng rng(5);
  Table t = RandomTable(&rng, 2, 4000, Shape::kRandom);
  const HashIndex single(t, {0});
  const HashIndex multi(t, {0, 1});
  const BruteIndex want_single = BruteForce(t, {0});
  const BruteIndex want_multi = BruteForce(t, {0, 1});
  std::vector<std::thread> readers;
  std::vector<int> failures(4, 0);
  for (int w = 0; w < 4; ++w) {
    readers.emplace_back([&, w] {
      BatchMatches out;
      for (int round = 0; round < 20; ++round) {
        for (const auto& [key, rows] : want_single) {
          if (Vec(single.Lookup1(key[0])) != rows) ++failures[w];
        }
        for (const auto& [key, rows] : want_multi) {
          if (Vec(multi.Lookup(key)) != rows) ++failures[w];
          multi.LookupBatch(key.data(), 1, &out);
          if (std::vector<RowId>(out.begin_of(0), out.end_of(0)) != rows) {
            ++failures[w];
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(failures[w], 0) << "reader " << w;
}

}  // namespace
}  // namespace fastqre
