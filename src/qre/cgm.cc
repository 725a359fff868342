#include "qre/cgm.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/resource_governor.h"
#include "common/strings.h"
#include "common/timer.h"
#include "engine/compare.h"
#include "engine/executor.h"

namespace fastqre {

namespace {

using Mapping = std::vector<std::pair<ColumnId, ColumnId>>;

// Deterministic cap on per-level candidate growth; prevents pathological
// blowup on databases where many columns accidentally cover many R_out
// columns (the paper's intuition is that accidental coherence is rare, but
// the code must stay bounded even when it is not).
constexpr size_t kMaxGroupsPerLevel = 20000;

// pi_outcols(rout) ⊆ pi_dbcols(table) via one index probe per distinct
// R_out tuple. `interrupt` (may be empty) aborts the probe loop early; the
// resulting false verdict is only ever observed by a caller that is itself
// about to abort, so it never leaks into a kept CGM set.
bool GroupCoherent(const Database& db, const Table& rout, TableId t,
                   const Mapping& mapping,
                   const std::function<bool()>& interrupt) {
  std::vector<ColumnId> out_cols, db_cols;
  out_cols.reserve(mapping.size());
  db_cols.reserve(mapping.size());
  for (const auto& [oc, dc] : mapping) {
    out_cols.push_back(oc);
    db_cols.push_back(dc);
  }
  const HashIndex& index = db.GetOrBuildIndex(t, db_cols);
  // gov: bounded — one projection of R_out (small by problem definition),
  // freed at scope exit.
  TupleSet out_tuples = ProjectToTupleSet(rout, out_cols, interrupt);
  if (interrupt && interrupt()) return false;
  uint64_t work = 0;
  // Forall-probe in R_out row order; any visiting order reaches the same
  // boolean verdict.
  for (std::span<const ValueId> tuple : out_tuples) {
    if ((++work & kInterruptPollMask) == 0 && interrupt && interrupt()) {
      return false;
    }
    if (index.Lookup(tuple).empty()) return false;
  }
  return true;
}

}  // namespace

std::string Cgm::ToString(const Database& db, const Table& rout) const {
  std::vector<std::string> pairs;
  for (const auto& [oc, dc] : mapping) {
    pairs.push_back(db.table(table).column(dc).name() + "->" +
                    rout.column(oc).name());
  }
  return db.table(table).name() + "{" + JoinStrings(pairs, ", ") + "}" +
         (certain ? " [certain]" : "");
}

CgmSet DiscoverCgms(const Database& db, const Table& rout,
                    const ColumnCover& cover, const QreOptions& options,
                    QreStats* stats,
                    const std::function<bool()>& interrupt,
                    ResourceGovernor* governor) {
  Timer timer;
  CgmSet result;
  result.of_out_column.resize(rout.num_columns());

  // Once this fires, discovery unwinds and returns what it has; the caller
  // checks the same interrupt right after and aborts the search, so the
  // partial set never ranks mappings.
  bool aborted = false;
  auto stopped = [&]() {
    if (!aborted && interrupt && interrupt()) aborted = true;
    return aborted;
  };

  for (TableId t = 0; t < db.num_tables() && !stopped(); ++t) {
    // Level 1: singleton groups straight from the column cover (already
    // coherent by definition of the cover).
    std::vector<Mapping> level;
    for (ColumnId c = 0; c < rout.num_columns(); ++c) {
      for (const CoverEntry& e : cover.covers[c]) {
        if (e.table == t) level.push_back(Mapping{{c, e.column}});
      }
    }
    if (level.empty()) continue;

    // `maximal[m]` = true until some coherent supergroup subsumes m.
    std::map<Mapping, bool> maximal;
    for (const auto& m : level) maximal[m] = true;

    int level_size = 1;
    while (!level.empty() && level_size < options.max_cgm_columns) {
      // Apriori join: two sorted groups sharing all but the last pair
      // combine into a (k+1)-group; the combination must stay 1-to-1.
      std::sort(level.begin(), level.end());
      std::set<Mapping> level_set(level.begin(), level.end());
      std::vector<Mapping> next;
      for (size_t i = 0; i < level.size(); ++i) {
        for (size_t j = i + 1; j < level.size(); ++j) {
          const Mapping& a = level[i];
          const Mapping& b = level[j];
          if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
          const auto& [a_oc, a_dc] = a.back();
          const auto& [b_oc, b_dc] = b.back();
          if (a_oc == b_oc || a_dc == b_dc) continue;  // violates 1-to-1
          Mapping cand = a;
          cand.push_back(b.back());
          std::sort(cand.begin(), cand.end());
          // Apriori prune: every k-subset must itself be coherent.
          bool all_subsets_coherent = true;
          for (size_t drop = 0; drop + 2 < cand.size() && all_subsets_coherent;
               ++drop) {
            Mapping sub = cand;
            sub.erase(sub.begin() + drop);
            if (level_set.count(sub) == 0) all_subsets_coherent = false;
          }
          if (!all_subsets_coherent) continue;

          if (governor != nullptr) governor->FaultPoint("cgm-discovery");
          if (stopped()) break;
          ++stats->cgm_candidates_checked;
          if (!GroupCoherent(db, rout, t, cand, interrupt)) continue;

          // cand is coherent: all its k-subsets are non-maximal.
          for (size_t drop = 0; drop < cand.size(); ++drop) {
            Mapping sub = cand;
            sub.erase(sub.begin() + drop);
            auto it = maximal.find(sub);
            if (it != maximal.end()) it->second = false;
          }
          maximal[cand] = true;
          next.push_back(std::move(cand));
          if (next.size() >= kMaxGroupsPerLevel) break;
        }
        if (aborted || next.size() >= kMaxGroupsPerLevel) break;
      }
      if (aborted) break;
      // Dedup (the join can produce the same (k+1)-group from multiple
      // parent pairs).
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      level = std::move(next);
      ++level_size;
    }

    for (const auto& [mapping, is_maximal] : maximal) {
      if (!is_maximal) continue;
      Cgm cgm;
      cgm.table = t;
      cgm.mapping = mapping;
      int idx = static_cast<int>(result.cgms.size());
      result.cgms.push_back(std::move(cgm));
      for (const auto& [oc, dc] : mapping) {
        result.of_out_column[oc].push_back(idx);
      }
    }
  }

  // Certainty (Section 4.3.1): a 1-match column c (|S_c| = 1, |Λ_c| = 1)
  // whose database column is a key within pi_C(R) pins its CGM into any
  // generating query.
  for (ColumnId c = 0; c < rout.num_columns() && !stopped(); ++c) {
    if (cover.covers[c].size() != 1 || result.of_out_column[c].size() != 1) {
      continue;
    }
    Cgm& cgm = result.cgms[result.of_out_column[c][0]];
    if (cgm.certain) continue;
    int db_col = cgm.DbColumnFor(c);
    // Key test: within the distinct tuples of pi_C(R), no two tuples share
    // the c' value.
    // gov: bounded — one table projection for the transient certainty test,
    // freed each iteration.
    TupleSet group_tuples =
        ProjectToTupleSet(db.table(cgm.table), cgm.DbColumns(), interrupt);
    if (stopped()) break;
    std::unordered_set<ValueId> key_values;
    size_t key_pos = 0;
    {
      auto db_cols = cgm.DbColumns();
      for (size_t i = 0; i < db_cols.size(); ++i) {
        if (static_cast<int>(db_cols[i]) == db_col) key_pos = i;
      }
    }
    // Only the final cardinality is compared. A mid-loop stop leaves
    // key_values partial, so the size test below stays false and no
    // certainty is pinned under interrupt.
    uint64_t scanned = 0;
    for (std::span<const ValueId> tuple : group_tuples) {
      if ((++scanned & kInterruptPollMask) == 0 && stopped()) break;
      key_values.insert(tuple[key_pos]);
    }
    if (key_values.size() == group_tuples.size()) cgm.certain = true;
  }

  stats->num_cgms += result.cgms.size();
  stats->cgm_seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace fastqre
