// Unit tests for TupleSet, the flat insertion-ordered set of fixed-width
// ValueId tuples behind the pi / containment machinery and HashIndex's key
// table: duplicates, growth through rehashes, zero-width tuples, iteration
// order, set equality, and wrong-width probes.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "storage/tuple_set.h"

namespace fastqre {
namespace {

using Tuple = std::vector<ValueId>;

std::vector<std::vector<ValueId>> Contents(const TupleSet& s) {
  std::vector<std::vector<ValueId>> out;
  for (std::span<const ValueId> t : s) out.emplace_back(t.begin(), t.end());
  return out;
}

TEST(TupleSet, DuplicatesAreInsertedOnce) {
  TupleSet s;
  EXPECT_EQ(s.insert(Tuple{1, 2}), (std::pair<size_t, bool>{0, true}));
  EXPECT_EQ(s.insert(Tuple{3, 4}), (std::pair<size_t, bool>{1, true}));
  // A duplicate reports the first copy's insertion number.
  EXPECT_EQ(s.insert(Tuple{1, 2}), (std::pair<size_t, bool>{0, false}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.width(), 2u);
  EXPECT_EQ(s.count(Tuple{1, 2}), 1u);
  EXPECT_EQ(s.count(Tuple{2, 1}), 0u);
  EXPECT_EQ(s.Find(Tuple{3, 4}), 1u);
  EXPECT_EQ(s.Find(Tuple{4, 3}), TupleSet::npos);
}

TEST(TupleSet, GrowsThroughSeveralRehashes) {
  // 50k tuples from a 16-slot start: a dozen doublings, each re-placing
  // every tuple. Every tuple must stay findable at its insertion number.
  TupleSet s(3);
  const ValueId n = 50000;
  for (ValueId i = 0; i < n; ++i) {
    const std::vector<ValueId> t = {i, i * 7, i % 13};
    ASSERT_TRUE(s.insert(t).second) << i;
  }
  EXPECT_EQ(s.size(), n);
  for (ValueId i = 0; i < n; ++i) {
    const std::vector<ValueId> t = {i, i * 7, i % 13};
    ASSERT_EQ(s.Find(t), i);
    EXPECT_FALSE(s.insert(t).second);
  }
  EXPECT_EQ(s.count(Tuple{n, n * 7, n % 13}), 0u);
  EXPECT_GE(s.EstimatedBytes(), n * 3 * sizeof(ValueId));
}

TEST(TupleSet, ReserveKeepsContentsAndOrder) {
  TupleSet s;
  s.reserve(4);  // width not known yet
  s.insert(Tuple{5});
  s.insert(Tuple{3});
  s.reserve(10000);  // rehash with live contents
  s.insert(Tuple{9});
  EXPECT_EQ(Contents(s), (std::vector<std::vector<ValueId>>{{5}, {3}, {9}}));
  EXPECT_EQ(s.Find(Tuple{3}), 1u);
  EXPECT_EQ(s.Find(Tuple{4}), TupleSet::npos);
}

TEST(TupleSet, ZeroWidthHoldsAtMostTheEmptyTuple) {
  TupleSet s;
  EXPECT_TRUE(s.insert(std::span<const ValueId>()).second);
  EXPECT_FALSE(s.insert(std::span<const ValueId>()).second);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.width(), 0u);
  EXPECT_EQ(s.count(std::span<const ValueId>()), 1u);
  EXPECT_EQ(s.count(Tuple{1}), 0u);
  size_t visited = 0;
  for (std::span<const ValueId> t : s) {
    EXPECT_TRUE(t.empty());
    ++visited;
  }
  EXPECT_EQ(visited, 1u);

  TupleSet empty(0);
  EXPECT_EQ(empty.count(std::span<const ValueId>()), 0u);
  EXPECT_FALSE(empty == s);
}

TEST(TupleSet, IteratesInInsertionOrder) {
  // Order of first insertion, whatever the hash does: a random sequence
  // with repeats against the order-of-first-appearance reference.
  Rng rng(17);
  TupleSet s(2);
  std::vector<std::vector<ValueId>> want;
  std::set<std::vector<ValueId>> seen;
  for (int i = 0; i < 5000; ++i) {
    std::vector<ValueId> t = {static_cast<ValueId>(rng.Uniform(100)),
                              static_cast<ValueId>(rng.Uniform(100))};
    s.insert(t);
    if (seen.insert(t).second) want.push_back(t);
  }
  EXPECT_EQ(Contents(s), want);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(s.Find(want[i]), i);
}

TEST(TupleSet, EqualityIgnoresInsertionOrder) {
  TupleSet a, b;
  for (ValueId i = 0; i < 100; ++i) a.insert(Tuple{i, i + 1});
  for (ValueId i = 100; i-- > 0;) b.insert(Tuple{i, i + 1});
  EXPECT_TRUE(a == b);
  b.insert(Tuple{1000, 1001});
  EXPECT_FALSE(a == b);
  a.insert(Tuple{1000, 1002});
  EXPECT_FALSE(a == b);  // same size, different member
  // Empty sets are equal whatever their width.
  EXPECT_TRUE(TupleSet() == TupleSet(3));
  // Same size, different widths: never equal.
  TupleSet one, two;
  one.insert(Tuple{1});
  two.insert(Tuple{1, 1});
  EXPECT_FALSE(one == two);
}

TEST(TupleSet, WrongWidthTupleIsNeverAMember) {
  TupleSet s;
  s.insert(Tuple{1, 2});
  EXPECT_EQ(s.count(Tuple{1}), 0u);
  EXPECT_EQ(s.count(Tuple{1, 2, 3}), 0u);
  EXPECT_EQ(s.count(std::span<const ValueId>()), 0u);
  EXPECT_EQ(s.Find(Tuple{1}), TupleSet::npos);
  TupleSet fixed(3);
  EXPECT_EQ(fixed.count(Tuple{1, 2}), 0u);  // empty and of another width
}

TEST(TupleSet, RawPointerInsertAndContains) {
  TupleSet s(2);
  const ValueId rows[] = {1, 2, 3, 4, 1, 2};
  EXPECT_TRUE(s.Insert(rows));
  EXPECT_TRUE(s.Insert(rows + 2));
  EXPECT_FALSE(s.Insert(rows + 4));
  EXPECT_TRUE(s.Contains(rows + 4));
  const ValueId other[] = {2, 1};
  EXPECT_FALSE(s.Contains(other));
}

}  // namespace
}  // namespace fastqre
