#include "engine/block_executor.h"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_set>

#include "common/resource_governor.h"
#include "engine/subplan_cache.h"

namespace fastqre {

namespace {

// Block-buffer bytes are accumulated locally and flushed to the governor in
// quanta, keeping the accounting cost off the per-row hot path.
constexpr uint64_t kChargeQuantumBytes = 64 * 1024;

// Hard cap on join enumeration: a pathological candidate query stops with
// ResourceExhausted (the validator dismisses just that candidate) instead of
// enumerating until a time budget fires. It applies to each walked level's
// own count of enumerated matches (see Walk).
constexpr size_t kMaxIntermediateRows = 20'000'000;

// Version tag leading every subplan signature, so a future encoding change
// can never alias entries written by an older one.
constexpr uint32_t kSubplanSigVersion = 3;

// Bindings a level's interface dedup examines before deciding whether the
// collapse pays for itself (see ClassDedup::Admit).
constexpr size_t kDedupSampleRows = 4096;

Status Interrupted() {
  return Status::ResourceExhausted("block evaluation interrupted");
}
Status OverBudget() {
  return Status::ResourceExhausted(
      "block evaluation exceeded the memory budget");
}
Status OverCap() {
  return Status::ResourceExhausted(
      "block evaluation exceeded the intermediate-size cap");
}

// Same-instance filters (self joins, selections) of one plan step, resolved
// to raw column pointers once so the per-row check is a few loads.
struct LocalFilters {
  std::vector<std::pair<const ValueId*, const ValueId*>> self_eq;
  std::vector<std::pair<const ValueId*, ValueId>> sel_eq;

  // `include_selections` is false on probe steps, whose selections are
  // folded into the index key (see PlanJoins) and therefore already hold
  // for every enumerated match.
  void Build(const Database& db, const PJQuery& query, InstanceId inst,
             bool include_selections) {
    const Table& t = db.table(query.instance_table(inst));
    for (const auto& j : query.joins()) {
      if (j.a == inst && j.b == inst) {
        self_eq.emplace_back(t.column(j.col_a).data().data(),
                             t.column(j.col_b).data().data());
      }
    }
    if (!include_selections) return;
    for (const auto& s : query.selections()) {
      if (s.instance == inst) {
        sel_eq.emplace_back(t.column(s.column).data().data(), s.value);
      }
    }
  }

  bool Passes(RowId r) const {
    for (const auto& [a, b] : self_eq) {
      if (a[r] != b[r]) return false;
    }
    for (const auto& [col, val] : sel_eq) {
      if (col[r] != val) return false;
    }
    return true;
  }
};

// SIP filters of one plan step (DESIGN.md §13): a row is skipped when some
// future join partner's column provably lacks the row's join value. Resolved
// to raw column pointers once per step, like LocalFilters; kept separate so
// skips are counted as SIP's, not a local predicate's.
struct SipFilters {
  std::vector<std::pair<const ValueId*, const BitmapFilter*>> tests;

  bool Passes(RowId r) const {
    for (const auto& [col, filter] : tests) {
      if (!filter->Test(col[r])) return false;
    }
    return true;
  }
};

// One future-join SIP constraint of a plan step: the step instance's
// `local_col` must hit the presence filter of `other_table`.`other_col`.
// Per-candidate (the partner set depends on the candidate's later joins), so
// SIP is only applied to steps whose output is never memoized — see
// BlockContext::ResolveSip — keeping subplan signatures SIP-free and
// shareable.
struct SipDescriptor {
  ColumnId local_col;
  TableId other_table;
  ColumnId other_col;

  bool operator<(const SipDescriptor& o) const {
    if (local_col != o.local_col) return local_col < o.local_col;
    if (other_table != o.other_table) return other_table < o.other_table;
    return other_col < o.other_col;
  }
};

// A column of a placed instance, addressed by plan position.
using PlanColumn = std::pair<int, ColumnId>;

// The left-deep join plan the walk follows.
struct BlockPlan {
  // Placement order (plan position -> instance) and its inverse.
  std::vector<InstanceId> order;
  std::vector<int> pos;
  // key_cols[p]: the probe columns of step p's index; key_sources[p]: the
  // (plan position, column) each key component reads. A -1 position marks a
  // folded selection constant, whose ValueId rides in the column field.
  std::vector<std::vector<ColumnId>> key_cols;
  std::vector<std::vector<PlanColumn>> key_sources;
  // Future-join SIP constraints per plan position (empty with SIP off).
  std::vector<std::vector<SipDescriptor>> sip_descs;

  size_t size() const { return order.size(); }
};

Result<BlockPlan> PlanJoins(const Database& db, const PJQuery& query,
                            bool use_sip) {
  const size_t n = query.num_instances();
  BlockPlan plan;
  // Left-deep join order: start anywhere, repeatedly attach an instance
  // adjacent to the placed set (any order is correct; smallest-table-first
  // keeps intermediates modest without changing the block semantics).
  std::vector<std::vector<size_t>> adj(n);
  for (size_t ji = 0; ji < query.joins().size(); ++ji) {
    const auto& j = query.joins()[ji];
    if (j.a == j.b) continue;
    adj[j.a].push_back(ji);
    adj[j.b].push_back(ji);
  }
  std::vector<int>& pos = plan.pos;
  pos.assign(n, -1);
  plan.order = {0};
  pos[0] = 0;
  while (plan.order.size() < n) {
    InstanceId best = static_cast<InstanceId>(n);
    size_t best_rows = 0;
    for (InstanceId v = 0; v < n; ++v) {
      if (pos[v] >= 0) continue;
      bool frontier = false;
      for (size_t ji : adj[v]) {
        const auto& j = query.joins()[ji];
        InstanceId other = (j.a == v) ? j.b : j.a;
        if (pos[other] >= 0) frontier = true;
      }
      if (!frontier) continue;
      size_t rows = db.table(query.instance_table(v)).num_rows();
      if (best == n || rows < best_rows) {
        best = v;
        best_rows = rows;
      }
    }
    if (best == n) return Status::Internal("connected query not traversable");
    pos[best] = static_cast<int>(plan.order.size());
    plan.order.push_back(best);
  }

  // SIP descriptors per plan position: joins from the placed instance to a
  // *later*-placed one, i.e. filters the placed side can apply before the
  // partner's step exists (DESIGN.md §13, skip-only-provably-absent).
  plan.sip_descs.resize(n);
  if (use_sip) {
    for (const auto& j : query.joins()) {
      if (j.a == j.b) continue;
      const int pa = pos[j.a], pb = pos[j.b];
      const int earlier = std::min(pa, pb);
      const bool a_is_earlier = (pa == earlier);
      plan.sip_descs[earlier].push_back(SipDescriptor{
          a_is_earlier ? j.col_a : j.col_b,
          query.instance_table(a_is_earlier ? j.b : j.a),
          a_is_earlier ? j.col_b : j.col_a});
    }
    // det: order-insensitive — canonicalized per step for signature
    // stability; the tests are a conjunction, so their order is immaterial.
    for (auto& descs : plan.sip_descs) std::sort(descs.begin(), descs.end());
  }

  // Step key wiring.
  plan.key_cols.resize(n);
  plan.key_sources.resize(n);
  for (size_t p = 1; p < n; ++p) {
    const InstanceId inst = plan.order[p];
    for (const auto& j : query.joins()) {
      if (j.a == j.b) continue;
      InstanceId other;
      ColumnId local_col, other_col;
      if (j.a == inst && pos[j.b] >= 0 && pos[j.b] < static_cast<int>(p)) {
        other = j.b;
        local_col = j.col_a;
        other_col = j.col_b;
      } else if (j.b == inst && pos[j.a] >= 0 &&
                 pos[j.a] < static_cast<int>(p)) {
        other = j.a;
        local_col = j.col_b;
        other_col = j.col_a;
      } else {
        continue;
      }
      plan.key_cols[p].push_back(local_col);
      plan.key_sources[p].emplace_back(pos[other], other_col);
    }
    if (plan.key_cols[p].empty()) {
      return Status::Internal("frontier step without keys");
    }
    // Selection folding (mirrors the pipelined cursor): a probe step's
    // constant predicates become extra key components, so the index rejects
    // non-qualifying rows before they are enumerated instead of after. A
    // folded component's source slot is -1 and its `column` field carries
    // the constant ValueId. Order-preserving: the extended index's posting
    // list for (join key, constants) is exactly the plain lookup's posting
    // list with non-qualifying rows removed, in the same row order.
    for (const auto& s : query.selections()) {
      if (s.instance == inst) {
        plan.key_cols[p].push_back(s.column);
        plan.key_sources[p].emplace_back(-1, static_cast<ColumnId>(s.value));
      }
    }
  }
  return plan;
}

// The probe side of one join step, resolved to raw pointers once per call.
struct ProbeStep {
  const HashIndex* index = nullptr;
  LocalFilters filters;
  SipFilters sip;
  // Composite-key SIP (kw >= 2 only; a single-id key's slot probe compares
  // the id stored in the slot, which a bit test cannot beat): on
  // foreign-key data every component value exists while the combination
  // often does not, so a cache-resident bit test rejects the miss before the
  // slot-table probe. Output-neutral: only provably-empty probes are
  // skipped, and an empty probe enumerates nothing. Null with SIP off.
  const CompositeKeyFilter* key_filter = nullptr;
  // Per key component: the source plan position (-1 = folded constant), its
  // column data, and the constant.
  std::vector<int> src_pos;
  std::vector<const ValueId*> src_data;
  std::vector<ValueId> src_const;

  size_t key_width() const { return src_pos.size(); }

  // The probe key of `binding` (RowIds indexed by plan position).
  void FillKey(const RowId* binding, ValueId* key) const {
    for (size_t k = 0; k < src_pos.size(); ++k) {
      key[k] = src_pos[k] < 0 ? src_const[k] : src_data[k][binding[src_pos[k]]];
    }
  }
};

// Per-call state shared by the scan and the walk.
struct BlockContext {
  BlockContext(const Database& db_in, const PJQuery& query_in,
               const ExecPolicy& policy_in,
               const std::function<bool()>& interrupt_in, BlockPlan plan_in)
      : db(db_in),
        query(query_in),
        policy(policy_in),
        interrupt(interrupt_in),
        plan(std::move(plan_in)),
        governor(policy.governor != nullptr ? policy.governor
                                            : db.governor()) {}
  BlockContext(const BlockContext&) = delete;
  BlockContext& operator=(const BlockContext&) = delete;

  // Releases every byte this evaluation charged, on all return paths (the
  // buffers are locals of the callee, freed before this runs).
  ~BlockContext() {
    if (governor != nullptr && charged > 0) governor->Release(charged);
  }

  const Database& db;
  const PJQuery& query;
  const ExecPolicy& policy;
  const std::function<bool()>& interrupt;
  const BlockPlan plan;
  // Governor accounting for block buffers (DESIGN.md §11). Cumulative
  // across the call — a conservative overestimate of the peak — and fully
  // released by the destructor. A refused charge dismisses this candidate
  // only (the validator maps candidate-local ResourceExhausted to kError);
  // it never aborts the whole search. Memoized prefixes served from the
  // subplan cache are charged there ("subplan-build") instead, for the
  // cache's lifetime.
  // The policy's governor is the engine driving this candidate; the
  // database attachment is only a fallback for standalone executor use —
  // it is last-attach-wins across engines, so charging it here would let a
  // concurrent engine's exhausted ladder dismiss THIS engine's candidates.
  const std::shared_ptr<ResourceGovernor> governor;
  uint64_t charged = 0;
  // SIP skips across all steps (observability only).
  uint64_t sip_skipped = 0;

  const ValueId* Column(int p, ColumnId c) const {
    return db.table(query.instance_table(plan.order[p]))
        .column(c)
        .data()
        .data();
  }

  // Charges the block-buffer bytes accumulated in `*pending` once they
  // reach a quantum (any amount with `all`), zeroing it; false when the
  // governor refuses.
  bool ChargeQuantum(uint64_t* pending, bool all = false) {
    if (*pending == 0 || (!all && *pending < kChargeQuantumBytes)) return true;
    if (governor != nullptr) {
      if (!governor->TryCharge(*pending, "block-buffer")) return false;
      charged += *pending;
    }
    *pending = 0;
    return true;
  }

  // With memoization active, presence-bitmap SIP is restricted to the final
  // step: its output is never cached, so the per-candidate filter set cannot
  // leak into a shared prefix — stored levels stay SIP-free, shareable
  // across candidates, and their signatures need no SIP descriptors.
  // Without a cache every step filters (nothing is shared, so nothing can
  // alias); guard-less calls always run without one.
  SipFilters ResolveSip(size_t p) const {
    SipFilters filters;
    const bool sip_all_steps =
        policy.use_sip && policy.subplan_cache == nullptr;
    if (!policy.use_sip || (!sip_all_steps && p + 1 < plan.size())) {
      return filters;
    }
    const Table& t = db.table(query.instance_table(plan.order[p]));
    for (const SipDescriptor& d : plan.sip_descs[p]) {
      filters.tests.emplace_back(
          t.column(d.local_col).data().data(),
          &db.GetOrBuildPresenceFilter(d.other_table, d.other_col));
    }
    return filters;
  }

  // Resolves join step p (>= 1). The build side of the hash join is
  // interruptible, so a deadline or Cancel() lands inside a large index
  // build instead of after it (DESIGN.md §13); false when it fired.
  bool ResolveStep(size_t p, ProbeStep* step) const {
    const InstanceId inst = plan.order[p];
    step->index = db.TryGetOrBuildIndex(query.instance_table(inst),
                                        plan.key_cols[p], interrupt);
    if (step->index == nullptr) return false;
    step->filters.Build(db, query, inst, /*include_selections=*/false);
    step->sip = ResolveSip(p);
    const auto& sources = plan.key_sources[p];
    const size_t kw = sources.size();
    step->src_pos.resize(kw);
    step->src_data.assign(kw, nullptr);
    step->src_const.assign(kw, 0);
    for (size_t k = 0; k < kw; ++k) {
      step->src_pos[k] = sources[k].first;
      if (sources[k].first < 0) {
        step->src_const[k] = static_cast<ValueId>(sources[k].second);
      } else {
        step->src_data[k] = Column(sources[k].first, sources[k].second);
      }
    }
    if (policy.use_sip && kw >= 2) {
      step->key_filter = &db.GetOrBuildKeyFilter(query.instance_table(inst),
                                                 plan.key_cols[p]);
    }
    return true;
  }
};

// Canonical prefix signatures (DESIGN.md §13): sigs[p] encodes everything
// that determines the deduped bindings after step p — per placed instance
// its table, local predicates, (for p >= 1) the join-key wiring in
// plan-position space, and its level's interface spec `iface`. Cumulative:
// a level's bindings depend on every earlier level's dedup, so two
// candidates alias only when all of them agree. Plan positions, not instance
// ids, so two candidates sharing a prefix shape alias regardless of
// numbering; projections enter only through the interface specs.
std::vector<SubplanCache::Signature> PrefixSignatures(
    const BlockContext& ctx,
    const std::vector<std::vector<PlanColumn>>& iface) {
  const PJQuery& query = ctx.query;
  const BlockPlan& plan = ctx.plan;
  SubplanCache::Signature enc{kSubplanSigVersion};
  std::vector<SubplanCache::Signature> sigs(plan.size());
  for (size_t p = 0; p < plan.size(); ++p) {
    const InstanceId inst = plan.order[p];
    enc.push_back(static_cast<uint32_t>(query.instance_table(inst)));
    // Join-key wiring in (source position, source column, local column)
    // triples, canonically sorted: candidates declaring the same joins in a
    // different order produce the same matches in the same order.
    std::vector<std::array<uint32_t, 3>> wiring;
    for (size_t k = 0; k < plan.key_cols[p].size(); ++k) {
      // Folded selection components are omitted: they derive
      // deterministically from the selections encoded just below.
      if (plan.key_sources[p][k].first < 0) continue;
      wiring.push_back({static_cast<uint32_t>(plan.key_sources[p][k].first),
                        static_cast<uint32_t>(plan.key_sources[p][k].second),
                        static_cast<uint32_t>(plan.key_cols[p][k])});
    }
    std::sort(wiring.begin(), wiring.end());
    enc.push_back(static_cast<uint32_t>(wiring.size()));
    for (const auto& w : wiring) enc.insert(enc.end(), w.begin(), w.end());
    // Local predicates, canonically sorted.
    std::vector<std::pair<uint32_t, uint32_t>> sels, selfs;
    for (const auto& s : query.selections()) {
      if (s.instance == inst) sels.emplace_back(s.column, s.value);
    }
    for (const auto& j : query.joins()) {
      if (j.a == inst && j.b == inst) selfs.emplace_back(j.col_a, j.col_b);
    }
    std::sort(sels.begin(), sels.end());
    std::sort(selfs.begin(), selfs.end());
    enc.push_back(static_cast<uint32_t>(sels.size()));
    for (const auto& [c, v] : sels) {
      enc.push_back(c);
      enc.push_back(v);
    }
    enc.push_back(static_cast<uint32_t>(selfs.size()));
    for (const auto& [a, b] : selfs) {
      enc.push_back(a);
      enc.push_back(b);
    }
    enc.push_back(static_cast<uint32_t>(iface[p].size()));
    for (const auto& [ip, ic] : iface[p]) {
      enc.push_back(static_cast<uint32_t>(ip));
      enc.push_back(static_cast<uint32_t>(ic));
    }
    sigs[p] = enc;
  }
  return sigs;
}

// First-of-class filter over one walked level, applied as the level's
// bindings are produced. A binding influences the rest of the walk solely
// through its interface values — the columns later steps' join keys read
// plus the projection columns placed so far. Bindings equal on those produce
// identical projected-tuple sequences downstream, so keeping only the first
// of each class preserves the distinct-tuple set AND its first-occurrence
// order (a dropped binding's tuples were already emitted, in order, by its
// earlier representative). This collapses chain joins from row-pair counts
// to distinct-value counts — the multiplicative shrink the extras check
// lives on. Until Init it admits every binding (a guard-less walk's levels).
class ClassDedup {
 public:
  // `spec`: the level's interface, in (plan position, column) pairs.
  void Init(const BlockContext& ctx, const std::vector<PlanColumn>& spec) {
    for (const auto& [p, c] : spec) {
      pos_.push_back(p);
      cols_.push_back(ctx.Column(p, c));
    }
    key_.assign(spec.size(), 0);
    classes_ = TupleSet(spec.size());
    active_ = true;
  }

  // True when `binding` (RowIds by plan position) opens a new class, or
  // once the dedup has bailed out. Adds the class set's growth to *bytes.
  bool Admit(const RowId* binding, uint64_t* bytes) {
    if (!active_) return true;
    // Adaptive bail-out: when the first sample of bindings is mostly
    // distinct classes, the set cannot shrink the level enough to pay for
    // its hashing, so the level stops deduping (duplicates are harmless:
    // later levels and the leaf's dedup set absorb them). The decision
    // depends only on the level's production sequence, itself a function
    // of the prefix signature and the data, so a live walk and one resumed
    // from the subplan cache agree on it.
    if (examined_ == kDedupSampleRows &&
        classes_.size() > kDedupSampleRows / 2) {
      active_ = false;
      return true;
    }
    ++examined_;
    FillKey(binding);
    if (!classes_.Insert(key_.data())) return false;
    const size_t now = classes_.EstimatedBytes();
    *bytes += now - accounted_;
    accounted_ = now;
    return true;
  }

  // True when `binding`'s class was already admitted. Only meaningful when
  // the level's own instance is not in the spec, so that the parent binding
  // alone fixes the class.
  bool Seen(const RowId* binding) {
    if (!active_) return false;
    FillKey(binding);
    return classes_.Contains(key_.data());
  }

 private:
  void FillKey(const RowId* binding) {
    for (size_t j = 0; j < pos_.size(); ++j) {
      key_[j] = cols_[j][binding[pos_[j]]];
    }
  }

  std::vector<int> pos_;
  std::vector<const ValueId*> cols_;
  std::vector<ValueId> key_;
  // gov: charged — Admit reports every growth of EstimatedBytes(), which
  // the walk charges as "block-buffer".
  TupleSet classes_;
  size_t accounted_ = 0;
  size_t examined_ = 0;
  bool active_ = false;
};

// Step 0: filters the start table's rows into `rows`, one morsel-sized chunk
// at a time (per-chunk interrupt polls; the scan itself is cheap). `dedup`
// keeps only the first row of each interface class once initialized.
Status ScanStart(BlockContext& ctx, ClassDedup& dedup,
                 std::vector<RowId>* rows) {
  const Table& t0 = ctx.db.table(ctx.query.instance_table(ctx.plan.order[0]));
  LocalFilters filters;
  filters.Build(ctx.db, ctx.query, ctx.plan.order[0],
                /*include_selections=*/true);
  const SipFilters sip = ctx.ResolveSip(0);
  const size_t t0_rows = t0.num_rows();
  const size_t morsel = ctx.policy.MorselSize();
  uint64_t pending = 0;
  uint64_t skips = 0;
  for (size_t lo = 0; lo < t0_rows; lo += morsel) {
    if (ctx.interrupt && ctx.interrupt()) return Interrupted();
    const size_t hi = std::min(t0_rows, lo + morsel);
    for (RowId r = static_cast<RowId>(lo); r < hi; ++r) {
      if (!filters.Passes(r)) continue;
      if (!sip.Passes(r)) {
        ++skips;
        continue;
      }
      if (!dedup.Admit(&r, &pending)) continue;
      rows->push_back(r);
      pending += sizeof(RowId);
    }
    if (!ctx.ChargeQuantum(&pending)) return OverBudget();
  }
  if (!ctx.ChargeQuantum(&pending, /*all=*/true)) return OverBudget();
  ctx.sip_skipped += skips;
  return Status::OK();
}

// The projection columns, resolved to raw pointers, plus the output table's
// schema (colliding source names get a trailing '_').
struct Projection {
  std::vector<const ValueId*> data;
  std::vector<int> pos;  // plan position of each projected instance

  Status Build(const BlockContext& ctx, Table* out) {
    std::unordered_set<std::string> used_names;
    for (const auto& proj : ctx.query.projections()) {
      const Column& src = ctx.db.table(ctx.query.instance_table(proj.instance))
                              .column(proj.column);
      std::string col_name = src.name();
      while (used_names.count(col_name) > 0) col_name += "_";
      used_names.insert(col_name);
      FASTQRE_RETURN_NOT_OK(out->AddColumn(col_name, src.type()));
      data.push_back(src.data().data());
      pos.push_back(ctx.plan.pos[proj.instance]);
    }
    return Status::OK();
  }

  void Fill(const RowId* binding, ValueId* tuple) const {
    for (size_t i = 0; i < data.size(); ++i) {
      tuple[i] = data[i][binding[pos[i]]];
    }
  }
};

// Bytes charged per distinct output tuple: dedup-set entry, stored tuple and
// output-row estimate.
uint64_t OutputTupleBytes(size_t width) {
  return 2 * width * sizeof(ValueId) + 48;
}

// The evaluator (DESIGN.md §13): a serial depth-first walk over the plan.
//
// From each binding of the root — the deepest cached prefix, or the step-0
// scan — the walk extends one level at a time: a per-binding index lookup,
// then that level's local, SIP and composite-key filters; the leaf projects
// and dedupes. Children are visited in (scan row, match row, ...) order, so
// the distinct-tuple sequence, and with it the output table, is that of a
// nested-loop join over the plan.
//
// With a `guard` (the exact extras check) the walk stops at the first
// projected tuple outside it. It also keeps only the first binding of each
// interface class per level (ClassDedup) and one passing match of an
// existence-only level, neither of which changes the distinct-tuple
// sequence. Without a guard the walk pays the whole join: every binding is
// enumerated and streamed to the leaf's output dedup.
Result<Table> Walk(BlockContext& ctx, const std::string& name,
                   const TupleSet* guard, bool* violated,
                   BlockRunStats* run_stats) {
  const PJQuery& query = ctx.query;
  const BlockPlan& plan = ctx.plan;
  const size_t n = plan.size();
  const size_t leaf = n - 1;

  // Interface spec per level (see ClassDedup): iface[p] lists the (plan
  // position, column) pairs of positions <= p that a later step's join key
  // or a projection reads. At the leaf that is the projection; the leaf's
  // dedup is the projected-tuple set.
  std::vector<std::vector<PlanColumn>> iface(n);
  for (size_t p = 0; p < n; ++p) {
    auto& spec = iface[p];
    for (size_t q = p + 1; q < n; ++q) {
      for (const auto& [sp, sc] : plan.key_sources[q]) {
        // sp < 0 is a folded selection constant, not a prefix column.
        if (sp >= 0 && sp <= static_cast<int>(p)) spec.emplace_back(sp, sc);
      }
    }
    for (const auto& proj : query.projections()) {
      if (plan.pos[proj.instance] <= static_cast<int>(p)) {
        spec.emplace_back(plan.pos[proj.instance], proj.column);
      }
    }
    // det: order-insensitive — canonicalized for signature stability.
    std::sort(spec.begin(), spec.end());
    spec.erase(std::unique(spec.begin(), spec.end()), spec.end());
  }

  // Null on guard-less calls (see ExecuteBlock).
  SubplanCache* cache = ctx.policy.subplan_cache;
  std::vector<SubplanCache::Signature> sigs;
  if (cache != nullptr) sigs = PrefixSignatures(ctx, iface);

  // Per level: the resolved probe step, the level's dedup, its cursor into
  // the current parent's matches, and the bindings it keeps for the cache.
  struct Level {
    ProbeStep step;
    ClassDedup dedup;  // left inactive at the leaf and without a guard
    // No later step or projection reads this level's instance, so every
    // passing match of one parent is interchangeable: one proves existence.
    bool exists_only = false;
    // `kept` holds the level's deduped bindings, to be offered to the cache
    // once complete: the scan's rows at level 0, and at walked levels the
    // bindings of an admitted signature.
    bool record = false;
    // gov: charged — kept bindings' bytes are charged as "block-buffer"
    // (by ScanStart, or through the walk's pending quantum).
    std::vector<RowId> kept;
    std::span<const RowId> matches;
    size_t next = 0;
    // Pre-filter matches this level enumerated (posting-list sizes); the
    // intermediate-size cap applies to it per level.
    uint64_t enumerated = 0;
  };
  std::vector<Level> levels(n);

  // The root relation: the deepest cached prefix, or the step-0 scan. The
  // scan stays materialized; it is complete before the walk starts, so it is
  // offered to the cache whether or not the walk meets an extra tuple (but
  // not when the call aborts: an aborted call leaves the cache as it found
  // it). Cache-served roots stay charged to the cache's "subplan-build"
  // budget.
  const std::vector<RowId>* root = &levels[0].kept;
  size_t first = 1;  // the first walked level; == n when the scan is the leaf
  SubplanCache::Handle pin;  // keeps a hit alive while the walk reads it
  if (cache != nullptr && n >= 2) {
    for (int p = static_cast<int>(n) - 2; p >= 0; --p) {
      SubplanCache::Handle handle = cache->Lookup(sigs[p]);
      if (handle != nullptr) {
        pin = std::move(handle);
        root = &pin->rows;
        first = p + 1;
        if (run_stats != nullptr) ++run_stats->subplan_hits;
        break;
      }
    }
  }
  if (pin == nullptr) {
    ClassDedup dedup;
    if (guard != nullptr && n >= 2) dedup.Init(ctx, iface[0]);
    FASTQRE_RETURN_NOT_OK(ScanStart(ctx, dedup, &levels[0].kept));
    levels[0].record = n >= 2;
  }
  const size_t root_width = first;

  size_t max_key_width = 0;
  for (size_t q = first; q < n; ++q) {
    Level& level = levels[q];
    if (!ctx.ResolveStep(q, &level.step)) return Interrupted();
    max_key_width = std::max(max_key_width, level.step.key_width());
    // Without a guard every binding counts: no shortcut, no dedup.
    if (guard == nullptr) continue;
    level.exists_only = std::none_of(
        iface[q].begin(), iface[q].end(),
        [q](const PlanColumn& c) { return c.first == static_cast<int>(q); });
    if (q < leaf) {
      level.dedup.Init(ctx, iface[q]);
      // Admission is decided once, up front: the deepest-first probe above
      // counted this call's request for every level it walks.
      level.record = cache != nullptr && cache->WantsInsert(sigs[q]);
    }
  }
  // Offers the complete levels in [from, to) to the cache.
  auto offer = [&](size_t from, size_t to) {
    if (cache == nullptr) return;
    for (size_t q = from; q < to; ++q) {
      if (!levels[q].record) continue;
      auto snap = std::make_shared<SubplanTable>();
      snap->rows = std::move(levels[q].kept);
      snap->rows.shrink_to_fit();
      snap->width = q + 1;
      snap->bytes =
          sizeof(SubplanTable) + snap->rows.capacity() * sizeof(RowId);
      (void)cache->Insert(sigs[q], std::move(snap));
    }
  };

  Table out(name, ctx.db.dictionary());
  Projection proj;
  FASTQRE_RETURN_NOT_OK(proj.Build(ctx, &out));
  // gov: charged — OutputTupleBytes per new tuple, through `pending`.
  TupleSet seen(proj.data.size());
  // A guard bounds the distinct-tuple set (the first tuple past it ends the
  // walk).
  if (guard != nullptr) seen.reserve(guard->size() + 1);
  std::vector<ValueId> tuple(proj.data.size());
  std::vector<RowId> cur(n);  // the current path, one RowId per plan position
  std::vector<ValueId> key(max_key_width);

  const size_t morsel = ctx.policy.MorselSize();
  uint64_t ticks = 0;  // roots plus lookups; the interrupt is polled per morsel
  uint64_t pending = 0;
  uint64_t skips = 0;
  uint64_t enumerated = 0;
  auto finish_stats = [&]() {
    ctx.sip_skipped += skips;
    if (run_stats == nullptr) return;
    run_stats->rows_enumerated = enumerated;
    run_stats->sip_rows_skipped = ctx.sip_skipped;
  };

  const size_t root_count = root->size() / root_width;
  for (size_t ri = 0; ri < root_count; ++ri) {
    if (ticks++ % morsel == 0 && ctx.interrupt && ctx.interrupt()) {
      return Interrupted();
    }
    std::copy_n(root->data() + ri * root_width, root_width, cur.data());
    size_t q = first;
    bool opening = first < n;  // the scan of a one-instance query is the leaf
    bool at_leaf = first == n;
    for (;;) {
      if (opening) {
        // Open level q below the current path cur[0..q).
        opening = false;
        Level& level = levels[q];
        level.matches = {};
        level.next = 0;
        if (ticks++ % morsel == 0 && ctx.interrupt && ctx.interrupt()) {
          return Interrupted();
        }
        // Existence shortcut: when this level's instance feeds nothing
        // later, its class is fixed by the parent alone — if that class is
        // already known, the lookup can only re-produce duplicates.
        bool known = false;
        if (level.exists_only) {
          if (q == leaf) {
            proj.Fill(cur.data(), tuple.data());
            known = seen.Contains(tuple.data());
          } else {
            known = level.dedup.Seen(cur.data());
          }
        }
        if (!known) {
          const size_t kw = level.step.key_width();
          level.step.FillKey(cur.data(), key.data());
          if (level.step.key_filter != nullptr &&
              !level.step.key_filter->MayContain(key.data(), kw)) {
            ++skips;
          } else {
            level.matches = level.step.index->Lookup(
                std::span<const ValueId>(key.data(), kw));
            level.enumerated += level.matches.size();
            enumerated += level.matches.size();
            if (level.enumerated > kMaxIntermediateRows) return OverCap();
          }
        }
      }
      if (!at_leaf) {
        Level& level = levels[q];
        if (level.next == level.matches.size()) {
          if (q == first) break;  // this root's subtree is exhausted
          --q;
          continue;
        }
        const RowId m = level.matches[level.next++];
        if (!level.step.filters.Passes(m)) continue;
        if (!level.step.sip.Passes(m)) {
          ++skips;
          continue;
        }
        // One passing match proves existence; the rest are duplicates.
        if (level.exists_only) level.next = level.matches.size();
        cur[q] = m;
        if (q < leaf) {
          if (!level.dedup.Admit(cur.data(), &pending)) continue;
          if (level.record) {
            level.kept.insert(level.kept.end(), cur.begin(),
                              cur.begin() + q + 1);
            pending += (q + 1) * sizeof(RowId);
          }
          if (!ctx.ChargeQuantum(&pending)) return OverBudget();
          ++q;
          opening = true;
          continue;
        }
      }
      // A complete binding: project, dedupe, guard-check.
      at_leaf = false;
      proj.Fill(cur.data(), tuple.data());
      if (seen.Insert(tuple.data())) {
        if (guard != nullptr && guard->count(tuple) == 0) {
          // The candidate provably produces a tuple outside the guard set.
          // Only the scan is complete; the walked levels stopped midway.
          *violated = true;
          offer(0, first);
          finish_stats();
          return out;
        }
        out.AppendRowIds(tuple);
        pending += OutputTupleBytes(tuple.size());
        if (!ctx.ChargeQuantum(&pending)) return OverBudget();
      }
      if (first == n) break;  // the root binding was the leaf
    }
  }
  if (!ctx.ChargeQuantum(&pending, /*all=*/true)) return OverBudget();
  // The walk finished: every recorded level holds its complete, deduped
  // binding sequence.
  offer(0, leaf);
  finish_stats();
  return out;
}

}  // namespace

Result<Table> ExecuteBlock(const Database& db, const PJQuery& query,
                           const std::string& name,
                           std::function<bool()> interrupt,
                           const ExecPolicy& policy,
                           const TupleSet* subset_guard, bool* subset_violated,
                           BlockRunStats* run_stats) {
  if (query.num_instances() == 0) {
    return Status::InvalidArgument("query has no instances");
  }
  if (!query.IsConnected()) {
    return Status::InvalidArgument("query graph is disconnected (cross product)");
  }
  if (query.projections().empty()) {
    return Status::InvalidArgument("query has no projection columns");
  }
  if (subset_guard != nullptr && subset_violated == nullptr) {
    return Status::InvalidArgument("subset_guard requires subset_violated");
  }
  if (subset_violated != nullptr) *subset_violated = false;
  FASTQRE_ASSIGN_OR_RETURN(BlockPlan plan,
                           PlanJoins(db, query, policy.use_sip));
  // A guard-less call is the paper's single block operation, whose cost the
  // naive baseline must pay in full (DESIGN.md §2): it neither resumes from
  // nor stores memoized prefixes.
  ExecPolicy walk_policy = policy;
  if (subset_guard == nullptr) walk_policy.subplan_cache = nullptr;
  BlockContext ctx(db, query, walk_policy, interrupt, std::move(plan));
  return Walk(ctx, name, subset_guard, subset_violated, run_stats);
}

}  // namespace fastqre
