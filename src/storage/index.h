// HashIndex: an equality index over one or more columns of a table.
//
// Indexes back both the pipelined join executor (index-nested-loop joins on
// pk-fk edges) and the probing-query mechanism (point lookups binding
// projection columns to an R_out tuple's values).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "storage/table.h"
#include "storage/tuple_set.h"

namespace fastqre {

/// \brief Reusable result buffer of HashIndex::LookupBatch: the concatenated
/// posting lists of a whole morsel of probe keys.
///
/// Key i's matches are rows[offsets[i] .. offsets[i+1]); offsets has one
/// more entry than keys probed. Callers keep one BatchMatches alive across
/// morsels so the buffers' capacity is paid once per join step.
struct BatchMatches {
  std::vector<RowId> rows;
  std::vector<size_t> offsets;

  size_t num_keys() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  const RowId* begin_of(size_t i) const { return rows.data() + offsets[i]; }
  const RowId* end_of(size_t i) const { return rows.data() + offsets[i + 1]; }
};

/// \brief Equality index: (value tuple over `cols`) -> row ids.
///
/// Flat layout (DESIGN.md §4.1): the distinct keys form a TupleSet, numbered
/// in first-occurrence row order, and key k's rows are the CSR extent
/// rows_[offsets_[k] .. offsets_[k+1]), in ascending row order. A lookup is
/// one slot-table probe plus two offset loads; a posting list is a span into
/// one shared array. Immutable after the build, so concurrent lookups need
/// no locking.
class HashIndex {
  // Constructor gate for Build(): only members can name DeferTag, yet the
  // tagged constructor stays public so std::make_unique works (no naked
  // `new`; see tools/lint_invariants.py rule naked-new).
  struct DeferTag {
    explicit DeferTag() = default;
  };

 public:
  /// Builds the index eagerly over all rows of `table`.
  HashIndex(const Table& table, std::vector<ColumnId> cols);

  explicit HashIndex(DeferTag, std::vector<ColumnId> cols)
      : cols_(std::move(cols)), keys_(cols_.size()) {}

  /// Interruptible build: like the constructor, but polls `interrupt` (may
  /// be empty) every kInterruptPollMask rows and returns nullptr if it
  /// fired — so a deadline or Cancel() lands inside a large build instead of
  /// after it (the hash-join build-side interrupt gap, DESIGN.md §13). An
  /// aborted build publishes nothing.
  static std::unique_ptr<HashIndex> Build(
      const Table& table, std::vector<ColumnId> cols,
      const std::function<bool()>& interrupt);

  const std::vector<ColumnId>& columns() const { return cols_; }
  size_t num_keys() const { return keys_.size(); }

  /// Rows whose single indexed column equals `key`, in ascending row order.
  /// Requires 1 column.
  std::span<const RowId> Lookup1(ValueId key) const {
    return Postings(keys_.Find(std::span<const ValueId>(&key, 1)));
  }

  /// Rows whose indexed columns equal `key` position-wise, in ascending row
  /// order. A key of the wrong width matches nothing.
  std::span<const RowId> Lookup(std::span<const ValueId> key) const {
    return Postings(keys_.Find(key));
  }
  std::span<const RowId> Lookup(std::initializer_list<ValueId> key) const {
    return Lookup(std::span<const ValueId>(key.begin(), key.size()));
  }

  /// Probes a whole morsel of keys in one pass, filling `out` with each
  /// key's posting list in index row order — byte-identical to probing the
  /// same keys one at a time with Lookup1 / Lookup. `keys` holds `n` keys of
  /// width columns().size(), laid out key-major (key i starts at
  /// keys[i * width]); missing keys contribute an empty extent.
  void LookupBatch(const ValueId* keys, size_t n, BatchMatches* out) const;

  /// Resident bytes (key table, offsets, posting array), computed once at
  /// build time. Charged to the resource governor by the database's index
  /// cache (DESIGN.md §11); indexes persist for the database's lifetime, so
  /// the charge is never released.
  size_t EstimatedBytes() const { return estimated_bytes_; }

 private:
  std::span<const RowId> Postings(size_t key) const {
    if (key == TupleSet::npos) return {};
    return {rows_.data() + offsets_[key], rows_.data() + offsets_[key + 1]};
  }

  // Shared body of the constructor and Build(), polling `interrupt` per
  // stride. Returns false (leaving the index partial — the caller discards
  // the object) when the interrupt fired.
  bool BuildRows(const Table& table, const std::function<bool()>& interrupt);

  std::vector<ColumnId> cols_;
  size_t estimated_bytes_ = 0;
  // gov: charged — EstimatedBytes() covers the key table, offsets and
  // postings; the cache owner charges it as "index-build" when the built
  // index is published.
  TupleSet keys_;
  std::vector<uint32_t> offsets_;
  std::vector<RowId> rows_;
};

}  // namespace fastqre
