// Unit tests for walk discovery and query composition (Section 4.4).
#include <gtest/gtest.h>

#include <set>

#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "qre/cgm.h"
#include "qre/column_cover.h"
#include "qre/mapping.h"
#include "qre/walks.h"

namespace fastqre {
namespace {

// Builds the top-ranked column mapping for a workload query's R_out.
struct WalkFixture {
  Database db;
  Table rout;
  QreOptions opts;
  QreStats stats;
  ColumnCover cover;
  CgmSet cgms;
  ColumnMapping mapping;

  WalkFixture(Database d, Table r, QreOptions o = QreOptions())
      : db(std::move(d)), rout(std::move(r)), opts(o) {
    cover = ComputeColumnCover(db, rout, opts, &stats);
    cgms = DiscoverCgms(db, rout, cover, opts, &stats);
    MappingEnumerator e(&db, &rout, &cover, &cgms, &opts);
    EXPECT_TRUE(e.Next(&mapping));
  }
};

WalkFixture PaperQuery1Fixture() {
  Database db = BuildTpch({.scale_factor = 0.002, .seed = 42}).ValueOrDie();
  PJQuery q1 = BuildPaperQuery1(db).ValueOrDie();
  Table rout =
      ExecuteToTable(db, q1, "rout", {"A", "B", "C", "D", "E"}).ValueOrDie();
  return WalkFixture(std::move(db), std::move(rout));
}

std::string WalkTables(const WalkFixture& f, const Walk& w) {
  std::string out;
  for (TableId t : w.tables) {
    if (!out.empty()) out += "-";
    out += f.db.table(t).name();
  }
  return out;
}

TEST(Walks, EndpointsAndLengthBounds) {
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  ASSERT_FALSE(walks.empty());
  for (const Walk& w : walks) {
    EXPECT_LT(w.from_instance, w.to_instance);
    EXPECT_GE(w.length(), 1);
    EXPECT_LE(w.length(), f.opts.max_walk_length);
    EXPECT_EQ(w.tables.size(), w.steps.size() + 1);
    EXPECT_EQ(w.tables.front(),
              f.mapping.instances[w.from_instance].table);
    EXPECT_EQ(w.tables.back(), f.mapping.instances[w.to_instance].table);
  }
}

TEST(Walks, ContainsThePaperWalks) {
  // Query 1's three walks: w1 = S-PS, w2 = PS-P-PS2-S2, w3 = S-N-S2.
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  std::set<std::string> shapes;
  for (const Walk& w : walks) shapes.insert(WalkTables(f, w));
  EXPECT_TRUE(shapes.count("supplier-partsupp") ||
              shapes.count("partsupp-supplier"));
  EXPECT_TRUE(shapes.count("partsupp-part-partsupp-supplier") ||
              shapes.count("supplier-partsupp-part-partsupp"));
  EXPECT_TRUE(shapes.count("supplier-nation-supplier"));
}

TEST(Walks, NonSimpleWalksReuseEdges) {
  // w3 = S-N-S2 uses the S-N schema edge twice (once per step).
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  bool found = false;
  for (const Walk& w : walks) {
    if (WalkTables(f, w) == "supplier-nation-supplier" &&
        w.steps.size() == 2 && w.steps[0].edge == w.steps[1].edge) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Walks, NoDuplicateWalks) {
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  std::set<std::string> seen;
  for (const Walk& w : walks) {
    std::string sig = std::to_string(w.from_instance) + ":" +
                      std::to_string(w.to_instance);
    for (const WalkStep& s : w.steps) {
      sig += "," + std::to_string(s.edge) + (s.forward ? "f" : "r");
    }
    EXPECT_TRUE(seen.insert(sig).second) << sig;
  }
}

TEST(Walks, PerPairCapRespected) {
  WalkFixture f = PaperQuery1Fixture();
  f.opts.max_walks_per_pair = 3;
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  std::map<std::pair<int, int>, int> per_pair;
  for (const Walk& w : walks) {
    ++per_pair[{w.from_instance, w.to_instance}];
  }
  for (const auto& [pair, count] : per_pair) {
    EXPECT_LE(count, 3);
  }
}

TEST(Walks, LengthOrderWithinPair) {
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  std::map<std::pair<int, int>, int> last_len;
  for (const Walk& w : walks) {
    auto key = std::make_pair(w.from_instance, w.to_instance);
    auto it = last_len.find(key);
    if (it != last_len.end()) {
      EXPECT_GE(w.length(), it->second);
    }
    last_len[key] = w.length();
  }
}

TEST(Walks, MaxLengthOneRestrictsToDirectEdges) {
  WalkFixture f = PaperQuery1Fixture();
  f.opts.max_walk_length = 1;
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  for (const Walk& w : walks) EXPECT_EQ(w.length(), 1);
}

TEST(Walks, ComposeQueryReconstructsPaperQuery1) {
  WalkFixture f = PaperQuery1Fixture();
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  // Pick exactly the paper's three walks, identified by their *endpoint
  // instances*: S1 owns R_out columns A/B, S2 owns D/E, PS owns C. (Matching
  // table shapes alone is not enough — a supplier-partsupp walk also exists
  // between S2 and PS, and composing with it yields a different query.)
  const int s1 = f.mapping.slots[0].first;
  const int ps = f.mapping.slots[2].first;
  const int s2 = f.mapping.slots[3].first;
  auto connects = [](const Walk& w, int a, int b) {
    return (w.from_instance == a && w.to_instance == b) ||
           (w.from_instance == b && w.to_instance == a);
  };
  const Walk* w1 = nullptr;
  const Walk* w2 = nullptr;
  const Walk* w3 = nullptr;
  for (const Walk& w : walks) {
    std::string shape = WalkTables(f, w);
    if ((shape == "supplier-partsupp" || shape == "partsupp-supplier") &&
        connects(w, s1, ps) && w1 == nullptr) {
      w1 = &w;
    }
    if ((shape == "partsupp-part-partsupp-supplier" ||
         shape == "supplier-partsupp-part-partsupp") &&
        connects(w, ps, s2) && w2 == nullptr) {
      w2 = &w;
    }
    if (shape == "supplier-nation-supplier" && connects(w, s1, s2) &&
        w3 == nullptr) {
      w3 = &w;
    }
  }
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  ASSERT_NE(w3, nullptr);
  PJQuery q = ComposeQueryFromWalks(f.db, f.mapping, {w1, w2, w3});
  EXPECT_TRUE(q.IsConnected());
  EXPECT_EQ(q.num_instances(), 6u);  // 3 mapping + N, P, PS2 intermediates
  EXPECT_EQ(q.joins().size(), 6u);
  Table result = ExecuteToTable(f.db, q, "result").ValueOrDie();
  EXPECT_EQ(TableToTupleSet(result), TableToTupleSet(f.rout));
}

TEST(Walks, TwoInstanceMappingHasWalks) {
  Database db = BuildTpch({.scale_factor = 0.001, .seed = 3}).ValueOrDie();
  auto workload = StandardTpchWorkload(db).ValueOrDie();
  WalkFixture f(std::move(db), workload[1].rout);  // L02 supplier-nation
  ASSERT_EQ(f.mapping.instances.size(), 2u);
  auto walks = DiscoverWalks(f.db, f.mapping, f.opts);
  EXPECT_FALSE(walks.empty());
  bool direct = false;
  for (const Walk& w : walks) {
    if (w.length() == 1) direct = true;
  }
  EXPECT_TRUE(direct);
}

}  // namespace
}  // namespace fastqre
