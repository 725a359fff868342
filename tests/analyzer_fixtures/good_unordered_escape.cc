// Must-pass: unordered-escape. Each site is either provably
// order-insensitive (commutative accumulation, inserts into unordered
// containers) and needs no comment at all, or its ordered sink is sorted
// before escaping — including the `// det: sorted` ranked-output idiom.
#include "fixture_stubs.h"

unsigned long CountAll(const UnorderedTupleSet& tuples) {
  unsigned long total = 0;
  for (const auto& t : tuples) {
    total += t.size();
  }
  return total;
}

UnorderedTupleSet Dedup(const UnorderedTupleSet& tuples) {
  // gov: bounded - fixture-only copy, at most one entry per input tuple
  UnorderedTupleSet out;
  for (const auto& t : tuples) {
    out.insert(t);
  }
  return out;
}

std::vector<ValueId> CollectSorted(const UnorderedTupleSet& tuples) {
  std::vector<ValueId> out;
  for (const auto& t : tuples) {
    out.push_back(t[0]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PrintRanked(std::ostream& os, const UnorderedTupleSet& tuples) {
  std::vector<ValueId> ranked;
  // det: sorted - ranked is sorted below before any output is produced
  for (const auto& t : tuples) {
    ranked.push_back(t[0]);
  }
  std::sort(ranked.begin(), ranked.end());
  for (ValueId v : ranked) {
    os << static_cast<int>(v);
  }
}
