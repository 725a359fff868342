// TupleSet: a set of fixed-width ValueId tuples in one flat arena.
//
// With dictionary encoding, the paper's pi / set-containment machinery
// (column coherence, walk coherence, validation, the block executor's dedup
// passes) reduces to membership over id tuples, and HashIndex's key table is
// the same structure. Open addressing with linear probing over 8-byte slots
// indexes a contiguous arena that holds the tuples in insertion order, so an
// insert neither allocates nor copies a vector per tuple, and iteration
// order is insertion order: the hash function never influences any output or
// iteration order (DESIGN.md §4.1).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/dictionary.h"

namespace fastqre {

/// \brief Insertion-ordered set of fixed-width ValueId tuples.
///
/// The width is fixed by the constructor or by the first insert. A tuple of
/// another width is never a member (Find/count report it absent); inserting
/// one is a caller bug. Tuples are numbered 0, 1, ... in insertion order,
/// and that number is what Find and insert report. Const members never
/// write, so concurrent readers of a published set need no locking.
class TupleSet {
 public:
  static constexpr size_t npos = ~size_t{0};

  /// Insertion-ordered forward iteration; yields each tuple as a span into
  /// the arena (valid until the next insert).
  class const_iterator {
   public:
    using value_type = std::span<const ValueId>;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const ValueId* base, size_t width, size_t i)
        : base_(base), width_(width), i_(i) {}

    std::span<const ValueId> operator*() const {
      return {base_ + i_ * width_, width_};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const ValueId* base_ = nullptr;
    size_t width_ = 0;
    size_t i_ = 0;
  };
  using iterator = const_iterator;

  /// An empty set whose width the first insert fixes.
  TupleSet() = default;
  /// An empty set of `width`-id tuples.
  explicit TupleSet(size_t width) : width_(width) {}

  /// npos until the width is fixed.
  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Sizes the slot table (and, once the width is known, the arena) for `n`
  /// tuples, so the first `n` inserts never rehash.
  void reserve(size_t n);

  /// Inserts `tuple`; returns (its insertion number, whether it was new).
  std::pair<size_t, bool> insert(std::span<const ValueId> tuple);
  /// Inserts the width() ids at `tuple` (width already fixed); returns true
  /// iff the tuple was new.
  bool Insert(const ValueId* tuple) {
    return insert(std::span<const ValueId>(tuple, width_)).second;
  }

  /// Insertion number of `tuple`, or npos when absent or of another width.
  size_t Find(std::span<const ValueId> tuple) const {
    if (tuple.size() != width_ || size_ == 0) return npos;
    if (width_ == 0) return 0;
    const ValueId* t = tuple.data();
    const uint64_t h = Hash(t);
    const uint32_t tag = Tag(t, h);
    const size_t mask = slots_.size() - 1;
    for (size_t s = h >> shift_;; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.index == kEmptySlot) return npos;
      if (slot.tag == tag && (width_ == 1 || Equal(slot.index, t))) {
        return slot.index;
      }
    }
  }
  /// Membership of the width() ids at `tuple`.
  bool Contains(const ValueId* tuple) const {
    return Find(std::span<const ValueId>(tuple, width_)) != npos;
  }
  size_t count(std::span<const ValueId> tuple) const {
    return Find(tuple) != npos ? 1 : 0;
  }

  const_iterator begin() const { return {arena_.data(), width_, 0}; }
  const_iterator end() const { return {arena_.data(), width_, size_}; }

  /// Set equality: same tuples, in any insertion order.
  friend bool operator==(const TupleSet& a, const TupleSet& b);

  /// Resident bytes of the slot table and arena (capacity, not size).
  size_t EstimatedBytes() const {
    return sizeof(TupleSet) + slots_.capacity() * sizeof(Slot) +
           arena_.capacity() * sizeof(ValueId);
  }

 private:
  // tag: a hash fragment that rejects most non-matching slots without
  // touching the arena — for width 1 the id itself, which makes the slot
  // compare exact. index: insertion number, or kEmptySlot.
  struct Slot {
    uint32_t tag;
    uint32_t index;
  };
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};
  static constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

  // Slot numbers come from the high bits (h >> shift_), where the
  // multiplicative mix is strongest; tags from the low bits.
  uint64_t Hash(const ValueId* t) const {
    uint64_t h = 0;
    for (size_t i = 0; i < width_; ++i) h = (std::rotl(h, 23) ^ t[i]) * kMul;
    return h;
  }
  uint32_t Tag(const ValueId* t, uint64_t h) const {
    return width_ == 1 ? t[0] : static_cast<uint32_t>(h);
  }
  bool Equal(uint32_t index, const ValueId* t) const {
    const ValueId* stored = arena_.data() + static_cast<size_t>(index) * width_;
    for (size_t i = 0; i < width_; ++i) {
      if (stored[i] != t[i]) return false;
    }
    return true;
  }
  // Replaces the slot table by one of `capacity` (a power of two) slots.
  void Rehash(size_t capacity);

  size_t width_ = npos;
  size_t size_ = 0;
  int shift_ = 64;
  std::vector<Slot> slots_;
  std::vector<ValueId> arena_;
};

}  // namespace fastqre
