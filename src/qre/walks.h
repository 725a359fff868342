// Walk discovery (Section 4.4): the set W of all L-short walks between
// pairs of projection table instances of a column mapping.
//
// A walk is a sequence of schema-graph edges from one mapping instance to
// another. Walks need not be simple (an edge can repeat, e.g. the paper's
// w3 = S-N-S2 uses the S-N schema edge twice); intermediate nodes are
// always *fresh* instances, never instances from I_M (Section 4.4 "does not
// have any instances from I_M as intermediate nodes"), though they may be
// fresh instances of a projection table (w2's PS2).
#pragma once

#include <string>
#include <vector>

#include "engine/query.h"
#include "qre/mapping.h"
#include "qre/options.h"
#include "storage/database.h"

namespace fastqre {

/// \brief One traversal step: a schema edge with its orientation.
/// `forward` means edge side 0 is the node closer to the walk's start
/// (orientation matters for self-loops and repeated tables).
struct WalkStep {
  EdgeId edge;
  bool forward;

  bool operator==(const WalkStep& o) const {
    return edge == o.edge && forward == o.forward;
  }
  bool operator<(const WalkStep& o) const {
    return edge != o.edge ? edge < o.edge : forward < o.forward;
  }
};

/// \brief A walk between two mapping instances.
struct Walk {
  /// Endpoint indexes into ColumnMapping::instances (from < to).
  int from_instance;
  int to_instance;
  std::vector<WalkStep> steps;
  /// Node table sequence; tables.size() == steps.size() + 1.
  std::vector<TableId> tables;

  int length() const { return static_cast<int>(steps.size()); }

  std::string ToString(const Database& db) const;
};

/// \brief One intermediate table of a walk's join chain: rows enter through
/// `in_col` (joined to the previous hop) and leave through `out_col`.
struct WalkHop {
  TableId table;
  ColumnId in_col;
  ColumnId out_col;
};

/// \brief Canonical identity of a walk's *intermediate chain* — the part of
/// the join path between (but excluding) the two endpoint instances. Two
/// walks with the same canonical signature induce the same endpoint
/// reachability relation regardless of which mapping instances they connect,
/// which is what lets the walk-materialization cache (qre/walk_cache.h)
/// share work across candidates, mappings, and Reverse() calls.
///
/// A walk traversed backwards is the same walk, so the chain is canonicalized
/// up to reversal; `flipped` records whether the canonical orientation is the
/// reverse of the walk's own from→to orientation.
struct WalkSignature {
  /// Intermediate hops in canonical orientation. Empty for length-1 walks
  /// (a direct join: nothing to materialize — `cacheable` is false).
  std::vector<WalkHop> hops;
  /// Flattened hops (table, in_col, out_col)* — the cache key.
  std::vector<uint32_t> key;
  /// True if the canonical orientation reverses the walk's own orientation.
  bool flipped = false;
  /// Join columns the chain binds on the walk's endpoint instances, in the
  /// walk's own orientation (from_instance side, to_instance side).
  ColumnId from_col = 0;
  ColumnId to_col = 0;
  /// True for walks of length >= 2 (only those have a chain to materialize).
  bool cacheable = false;
};

/// \brief Computes the canonical signature of `walk` (see WalkSignature).
WalkSignature CanonicalWalkSignature(const Database& db, const Walk& walk);

/// \brief Discovers all walks of length <= options.max_walk_length between
/// every pair of instances in `mapping`, deduplicated up to reversal and
/// capped at options.max_walks_per_pair per pair (shortest first).
std::vector<Walk> DiscoverWalks(const Database& db, const ColumnMapping& mapping,
                                const QreOptions& options);

/// \brief Instantiates a candidate query from a walk group: one node per
/// mapping instance, fresh nodes for walk intermediates, joins along walk
/// steps, and projections in R_out column order per `mapping`.
PJQuery ComposeQueryFromWalks(const Database& db, const ColumnMapping& mapping,
                              const std::vector<const Walk*>& group);

/// \brief Like ComposeQueryFromWalks, but omits the intermediate chain (and
/// joins) of every walk with `materialized[i]` set — those endpoints are
/// wired up by the caller with virtual joins over cached walk relations
/// instead. Instance i of the returned query is mapping instance i (walk
/// endpoints keep their indexes); fresh intermediates of the remaining walks
/// follow.
PJQuery ComposeQueryFromWalksPartial(const Database& db,
                                     const ColumnMapping& mapping,
                                     const std::vector<const Walk*>& group,
                                     const std::vector<bool>& materialized);

}  // namespace fastqre
