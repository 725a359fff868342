// Reference semantics of a PJ query for differential tests: enumerate every
// combination of one row per instance, keep the combinations satisfying all
// joins and selections, project, dedupe. Exponential in the instance count,
// so only for small random databases.
#pragma once

#include <vector>

#include "engine/query.h"
#include "storage/database.h"
#include "storage/tuple_set.h"

namespace fastqre {

inline TupleSet BruteForce(const Database& db, const PJQuery& q) {
  const size_t n = q.num_instances();
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = db.table(q.instance_table(i)).num_rows();
  }
  TupleSet out;
  for (size_t r : rows) {
    if (r == 0) return out;
  }
  std::vector<RowId> binding(n, 0);
  while (true) {
    bool ok = true;
    for (const auto& j : q.joins()) {
      ValueId va =
          db.table(q.instance_table(j.a)).column(j.col_a).at(binding[j.a]);
      ValueId vb =
          db.table(q.instance_table(j.b)).column(j.col_b).at(binding[j.b]);
      if (va != vb) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const auto& s : q.selections()) {
        if (db.table(q.instance_table(s.instance)).column(s.column).at(
                binding[s.instance]) != s.value) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      std::vector<ValueId> tuple;
      tuple.reserve(q.projections().size());
      for (const auto& p : q.projections()) {
        tuple.push_back(
            db.table(q.instance_table(p.instance)).column(p.column).at(
                binding[p.instance]));
      }
      out.insert(std::move(tuple));
    }
    // Odometer increment.
    size_t d = 0;
    while (d < n && ++binding[d] == rows[d]) {
      binding[d] = 0;
      ++d;
    }
    if (d == n) break;
  }
  return out;
}

}  // namespace fastqre
