#include "storage/tuple_set.h"

#include <algorithm>
#include <cassert>

namespace fastqre {

namespace {

// Slot tables keep at least this many slots per tuple (load factor at most
// 1/2): with linear probing a hit then costs about 1.5 slot reads on
// average and a miss about 2.5.
constexpr size_t kSlotsPerTuple = 2;
constexpr size_t kMinSlots = 16;

size_t SlotsFor(size_t n) {
  return std::bit_ceil(std::max(kMinSlots, n * kSlotsPerTuple));
}

}  // namespace

void TupleSet::reserve(size_t n) {
  if (width_ != npos) arena_.reserve(n * width_);
  if (width_ != 0 && SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n));
}

std::pair<size_t, bool> TupleSet::insert(std::span<const ValueId> tuple) {
  if (width_ == npos) width_ = tuple.size();
  assert(tuple.size() == width_ && "TupleSet::insert: wrong tuple width");
  if (tuple.size() != width_) return {npos, false};
  if (width_ == 0) {
    // The empty tuple is the only zero-width tuple; it needs no slot.
    if (size_ == 1) return {0, false};
    size_ = 1;
    return {0, true};
  }
  if ((size_ + 1) * kSlotsPerTuple > slots_.size()) {
    Rehash(SlotsFor(size_ + 1));
  }
  const ValueId* t = tuple.data();
  const uint64_t h = Hash(t);
  const uint32_t tag = Tag(t, h);
  const size_t mask = slots_.size() - 1;
  for (size_t s = h >> shift_;; s = (s + 1) & mask) {
    Slot& slot = slots_[s];
    if (slot.index == kEmptySlot) {
      slot = Slot{tag, static_cast<uint32_t>(size_)};
      arena_.insert(arena_.end(), t, t + width_);
      return {size_++, true};
    }
    if (slot.tag == tag && (width_ == 1 || Equal(slot.index, t))) {
      return {slot.index, false};
    }
  }
}

void TupleSet::Rehash(size_t capacity) {
  slots_.assign(capacity, Slot{0, kEmptySlot});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < size_; ++i) {
    const ValueId* t = arena_.data() + i * width_;
    const uint64_t h = Hash(t);
    size_t s = h >> shift_;
    while (slots_[s].index != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = Slot{Tag(t, h), static_cast<uint32_t>(i)};
  }
}

bool operator==(const TupleSet& a, const TupleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::span<const ValueId> t : a) {
    if (b.Find(t) == TupleSet::npos) return false;
  }
  return true;
}

}  // namespace fastqre
