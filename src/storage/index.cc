#include "storage/index.h"

#include "common/interrupt.h"

namespace fastqre {

HashIndex::HashIndex(const Table& table, std::vector<ColumnId> cols)
    : cols_(std::move(cols)), keys_(cols_.size()) {
  (void)BuildRows(table, {});  // no interrupt: cannot fail
}

std::unique_ptr<HashIndex> HashIndex::Build(
    const Table& table, std::vector<ColumnId> cols,
    const std::function<bool()>& interrupt) {
  auto index = std::make_unique<HashIndex>(DeferTag{}, std::move(cols));
  if (!index->BuildRows(table, interrupt)) return nullptr;
  return index;
}

bool HashIndex::BuildRows(const Table& table,
                          const std::function<bool()>& interrupt) {
  const size_t n = table.num_rows();
  const size_t width = cols_.size();
  if (width > 0) {
    // Pass 1: number the distinct keys in first-occurrence order and count
    // each key's rows.
    std::vector<const ValueId*> data(width);
    for (size_t i = 0; i < width; ++i) {
      data[i] = table.column(cols_[i]).data().data();
    }
    std::vector<uint32_t> row_key(n);  // key number of each row
    std::vector<uint32_t> counts;
    std::vector<ValueId> key(width);
    for (RowId r = 0; r < n; ++r) {
      if ((r & kInterruptPollMask) == 0 && interrupt && interrupt()) {
        return false;
      }
      for (size_t i = 0; i < width; ++i) key[i] = data[i][r];
      const auto [k, fresh] = keys_.insert(key);
      if (fresh) counts.push_back(0);
      ++counts[k];
      row_key[r] = static_cast<uint32_t>(k);
    }
    // Pass 2: scatter the rows into their keys' extents. Rows are visited
    // in ascending order, so every posting list comes out ascending.
    offsets_.assign(keys_.size() + 1, 0);
    for (size_t k = 0; k < counts.size(); ++k) {
      offsets_[k + 1] = offsets_[k] + counts[k];
    }
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    rows_.resize(n);
    for (RowId r = 0; r < n; ++r) rows_[cursor[row_key[r]]++] = r;
  }
  estimated_bytes_ = sizeof(HashIndex) + keys_.EstimatedBytes() +
                     offsets_.capacity() * sizeof(uint32_t) +
                     rows_.capacity() * sizeof(RowId) +
                     cols_.capacity() * sizeof(ColumnId);
  return true;
}

void HashIndex::LookupBatch(const ValueId* keys, size_t n,
                            BatchMatches* out) const {
  out->rows.clear();
  out->offsets.clear();
  out->offsets.reserve(n + 1);
  out->offsets.push_back(0);
  const size_t width = cols_.size();
  // Adjacent duplicate keys (common when the driving morsel is sorted or
  // clustered) reuse the previous probe's posting list without re-hashing.
  std::span<const RowId> last;
  const ValueId* last_key = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const ValueId* k = keys + i * width;
    bool same = last_key != nullptr;
    for (size_t c = 0; same && c < width; ++c) same = k[c] == last_key[c];
    if (!same) {
      last = Lookup(std::span<const ValueId>(k, width));
      last_key = k;
    }
    out->rows.insert(out->rows.end(), last.begin(), last.end());
    out->offsets.push_back(out->rows.size());
  }
}

}  // namespace fastqre
