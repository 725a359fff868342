// Tuple-set utilities backing the paper's pi / set-containment machinery.
//
// With dictionary encoding, pi_C(R) is a set of ValueId tuples; direct
// column coherence, indirect (walk) coherence, and final validation all
// reduce to operations over these sets.
#pragma once

#include <functional>
#include <vector>

#include "storage/table.h"
#include "storage/tuple_set.h"

namespace fastqre {

// Every routine below polls `interrupt` (may be empty) once per
// kInterruptPollMask+1 rows/tuples so a deadline or Cancel() lands with
// bounded latency even inside a large projection or containment check. When
// the interrupt fires mid-scan the routine returns early — a partial set or
// a conservative `false` — so callers that pass an interrupt must re-check
// their stop predicate before trusting the result.

/// \brief Distinct tuples of `table` projected onto `cols` (pi_cols(table)).
TupleSet ProjectToTupleSet(const Table& table, const std::vector<ColumnId>& cols,
                           const std::function<bool()>& interrupt = {});

/// \brief Distinct full rows of `table`.
TupleSet TableToTupleSet(const Table& table,
                         const std::function<bool()>& interrupt = {});

/// \brief True if every tuple of `sub` is in `super`.
bool IsSubsetOf(const TupleSet& sub, const TupleSet& super,
                const std::function<bool()>& interrupt = {});

/// \brief True if the projection of `table` onto `cols` is a subset of
/// `super`, short-circuiting on the first missing tuple.
bool ProjectionSubsetOf(const Table& table, const std::vector<ColumnId>& cols,
                        const TupleSet& super,
                        const std::function<bool()>& interrupt = {});

}  // namespace fastqre
