#include "qre/walks.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace fastqre {

namespace {

// Enumerates all oriented edge sequences of length <= max_len from table
// `from` to table `to` by DFS over the schema multigraph.
void EnumerateShapes(const SchemaGraph& graph, TableId from, TableId to,
                     int max_len, std::vector<std::vector<WalkStep>>* out) {
  std::vector<WalkStep> path;
  // Iterative DFS with explicit stack of (table, next edge cursor) would be
  // noisier; recursion depth is bounded by max_len (small).
  struct Dfs {
    const SchemaGraph& graph;
    TableId to;
    int max_len;
    std::vector<std::vector<WalkStep>>* out;
    std::vector<WalkStep> path;

    void Run(TableId at) {
      if (!path.empty() && at == to) {
        out->push_back(path);
        // A walk may continue through `to` as an intermediate and come back,
        // so do not return here.
      }
      if (static_cast<int>(path.size()) == max_len) return;
      for (EdgeId eid : graph.EdgesOf(at)) {
        const SchemaEdge& e = graph.edge(eid);
        if (e.IsSelfLoop()) {
          // Both orientations of a self-loop are distinct traversals.
          for (bool fwd : {true, false}) {
            path.push_back(WalkStep{eid, fwd});
            Run(at);
            path.pop_back();
          }
        } else {
          int side = e.SideOf(at);
          path.push_back(WalkStep{eid, side == 0});
          Run(e.table[1 - side]);
          path.pop_back();
        }
      }
    }
  };
  Dfs dfs{graph, to, max_len, out, {}};
  dfs.Run(from);
}

std::vector<TableId> ShapeTables(const SchemaGraph& graph, TableId from,
                                 const std::vector<WalkStep>& steps) {
  std::vector<TableId> tables{from};
  TableId at = from;
  for (const WalkStep& s : steps) {
    const SchemaEdge& e = graph.edge(s.edge);
    at = s.forward ? e.table[1] : e.table[0];
    tables.push_back(at);
  }
  return tables;
}

// Canonical form up to reversal: a walk traversed backwards (edges reversed,
// orientations flipped) is the same walk.
std::vector<WalkStep> ReverseShape(const std::vector<WalkStep>& steps) {
  std::vector<WalkStep> rev(steps.rbegin(), steps.rend());
  for (WalkStep& s : rev) s.forward = !s.forward;
  return rev;
}

}  // namespace

std::string Walk::ToString(const Database& db) const {
  std::vector<std::string> names;
  for (TableId t : tables) names.push_back(db.table(t).name());
  return StringFormat("w[%d->%d] ", from_instance, to_instance) +
         JoinStrings(names, "-");
}

WalkSignature CanonicalWalkSignature(const Database& db, const Walk& walk) {
  const SchemaGraph& graph = db.schema_graph();
  WalkSignature sig;
  const size_t len = walk.steps.size();
  if (len == 0) return sig;

  // Per step k: the join column on the previous-side table (walk.tables[k])
  // and on the next-side table (walk.tables[k+1]).
  std::vector<ColumnId> prev_col(len), next_col(len);
  for (size_t k = 0; k < len; ++k) {
    const SchemaEdge& e = graph.edge(walk.steps[k].edge);
    int side_prev = walk.steps[k].forward ? 0 : 1;
    prev_col[k] = e.column[side_prev];
    next_col[k] = e.column[1 - side_prev];
  }
  sig.from_col = prev_col[0];
  sig.to_col = next_col[len - 1];
  if (len < 2) return sig;  // direct join: no intermediate chain

  // Intermediate table i (1..len-1) receives rows on step i-1's next column
  // and hands them on through step i's previous column.
  std::vector<WalkHop> hops;
  hops.reserve(len - 1);
  for (size_t i = 1; i < len; ++i) {
    hops.push_back(WalkHop{walk.tables[i], next_col[i - 1], prev_col[i]});
  }
  std::vector<WalkHop> rev(hops.rbegin(), hops.rend());
  for (WalkHop& h : rev) std::swap(h.in_col, h.out_col);

  auto flatten = [](const std::vector<WalkHop>& hs) {
    std::vector<uint32_t> flat;
    flat.reserve(hs.size() * 3);
    for (const WalkHop& h : hs) {
      flat.push_back(h.table);
      flat.push_back(h.in_col);
      flat.push_back(h.out_col);
    }
    return flat;
  };
  std::vector<uint32_t> fwd_key = flatten(hops);
  std::vector<uint32_t> rev_key = flatten(rev);
  sig.flipped = rev_key < fwd_key;
  sig.hops = sig.flipped ? std::move(rev) : std::move(hops);
  sig.key = sig.flipped ? std::move(rev_key) : std::move(fwd_key);
  sig.cacheable = true;
  return sig;
}

std::vector<Walk> DiscoverWalks(const Database& db, const ColumnMapping& mapping,
                                const QreOptions& options) {
  const SchemaGraph& graph = db.schema_graph();
  std::vector<Walk> walks;
  const int n = static_cast<int>(mapping.instances.size());

  // Shape cache per (from table, to table): instance pairs over the same
  // table pair share the enumeration.
  std::map<std::pair<TableId, TableId>, std::vector<std::vector<WalkStep>>>
      shape_cache;

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      TableId ti = mapping.instances[i].table;
      TableId tj = mapping.instances[j].table;
      auto key = std::make_pair(ti, tj);
      auto it = shape_cache.find(key);
      if (it == shape_cache.end()) {
        std::vector<std::vector<WalkStep>> shapes;
        EnumerateShapes(graph, ti, tj, options.max_walk_length, &shapes);
        // Dedup up to reversal. Reversal only identifies two enumerated
        // shapes when endpoints coincide (ti == tj); otherwise every shape
        // is enumerated exactly once from ti.
        if (ti == tj) {
          std::set<std::vector<WalkStep>> canon;
          std::vector<std::vector<WalkStep>> kept;
          for (auto& s : shapes) {
            std::vector<WalkStep> c = std::min(s, ReverseShape(s));
            if (canon.insert(c).second) kept.push_back(std::move(s));
          }
          shapes = std::move(kept);
        }
        // Shortest first; cap per pair.
        std::stable_sort(shapes.begin(), shapes.end(),
                         [](const auto& a, const auto& b) {
                           return a.size() < b.size();
                         });
        if (shapes.size() > static_cast<size_t>(options.max_walks_per_pair)) {
          shapes.resize(options.max_walks_per_pair);
        }
        it = shape_cache.emplace(key, std::move(shapes)).first;
      }
      for (const auto& shape : it->second) {
        Walk w;
        w.from_instance = i;
        w.to_instance = j;
        w.steps = shape;
        w.tables = ShapeTables(graph, ti, shape);
        walks.push_back(std::move(w));
      }
    }
  }
  return walks;
}

namespace {

// Adds walk `w`'s chain of joins to `q`, creating fresh intermediate
// instances; `endpoint_nodes` maps mapping-instance index -> InstanceId.
void AddWalkJoins(const Database& db, const Walk& w,
                  const std::vector<InstanceId>& endpoint_nodes, PJQuery* q) {
  const SchemaGraph& graph = db.schema_graph();
  InstanceId prev = endpoint_nodes[w.from_instance];
  for (size_t k = 0; k < w.steps.size(); ++k) {
    const WalkStep& step = w.steps[k];
    const SchemaEdge& e = graph.edge(step.edge);
    int side_prev = step.forward ? 0 : 1;
    int side_next = 1 - side_prev;
    InstanceId next;
    if (k + 1 == w.steps.size()) {
      next = endpoint_nodes[w.to_instance];
    } else {
      next = q->AddInstance(e.table[side_next]);
    }
    q->AddJoin(prev, e.column[side_prev], next, e.column[side_next]);
    prev = next;
  }
}

}  // namespace

PJQuery ComposeQueryFromWalks(const Database& db, const ColumnMapping& mapping,
                              const std::vector<const Walk*>& group) {
  return ComposeQueryFromWalksPartial(db, mapping, group,
                                      std::vector<bool>(group.size(), false));
}

PJQuery ComposeQueryFromWalksPartial(const Database& db,
                                     const ColumnMapping& mapping,
                                     const std::vector<const Walk*>& group,
                                     const std::vector<bool>& materialized) {
  PJQuery q;
  std::vector<InstanceId> nodes;
  nodes.reserve(mapping.instances.size());
  for (const auto& inst : mapping.instances) {
    nodes.push_back(q.AddInstance(inst.table));
  }
  for (size_t i = 0; i < group.size(); ++i) {
    if (!materialized[i]) AddWalkJoins(db, *group[i], nodes, &q);
  }
  for (const auto& [inst, db_col] : mapping.slots) {
    q.AddProjection(nodes[inst], db_col);
  }
  return q;
}

}  // namespace fastqre
