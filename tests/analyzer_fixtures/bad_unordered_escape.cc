// Must-flag: unordered-escape, twice. CollectUnsorted appends a hash set's
// iteration order into a vector that is never sorted; CollectMisclassified does
// the same under a `// det: order-insensitive` comment the analyzer can
// prove wrong.
#include "fixture_stubs.h"

std::vector<ValueId> CollectUnsorted(const UnorderedTupleSet& tuples) {
  std::vector<ValueId> out;
  for (const auto& t : tuples) {
    out.push_back(t[0]);
  }
  return out;
}

std::vector<ValueId> CollectMisclassified(const UnorderedTupleSet& tuples) {
  std::vector<ValueId> out;
  // det: order-insensitive - WRONG on purpose: the append leaks hash order
  for (const auto& t : tuples) {
    out.push_back(t[0]);
  }
  return out;
}
