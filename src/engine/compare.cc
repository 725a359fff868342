#include "engine/compare.h"

#include "common/interrupt.h"

namespace fastqre {

TupleSet ProjectToTupleSet(const Table& table, const std::vector<ColumnId>& cols,
                           const std::function<bool()>& interrupt) {
  // gov: bounded — one projection of a caller-chosen table; callers on the
  // search path project R_out (small) or governor-charged block results.
  TupleSet out(cols.size());
  out.reserve(table.num_rows());
  std::vector<const ValueId*> data(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    data[i] = table.column(cols[i]).data().data();
  }
  std::vector<ValueId> tuple(cols.size());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if ((r & kInterruptPollMask) == 0 && interrupt && interrupt()) {
      // Partial set: the caller re-checks its stop predicate and discards.
      return out;
    }
    for (size_t i = 0; i < cols.size(); ++i) tuple[i] = data[i][r];
    out.insert(tuple);
  }
  return out;
}

TupleSet TableToTupleSet(const Table& table,
                         const std::function<bool()>& interrupt) {
  std::vector<ColumnId> cols(table.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<ColumnId>(i);
  return ProjectToTupleSet(table, cols, interrupt);
}

bool IsSubsetOf(const TupleSet& sub, const TupleSet& super,
                const std::function<bool()>& interrupt) {
  if (sub.size() > super.size()) return false;
  uint64_t probed = 0;
  for (std::span<const ValueId> t : sub) {
    if ((++probed & kInterruptPollMask) == 0 && interrupt && interrupt()) {
      // Conservative "no" under interrupt; the caller re-checks its stop
      // predicate before trusting a false verdict.
      return false;
    }
    if (super.count(t) == 0) return false;
  }
  return true;
}

bool ProjectionSubsetOf(const Table& table, const std::vector<ColumnId>& cols,
                        const TupleSet& super,
                        const std::function<bool()>& interrupt) {
  std::vector<ValueId> tuple(cols.size());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if ((r & kInterruptPollMask) == 0 && interrupt && interrupt()) {
      return false;
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      tuple[i] = table.column(cols[i]).at(r);
    }
    if (super.count(tuple) == 0) return false;
  }
  return true;
}

}  // namespace fastqre
