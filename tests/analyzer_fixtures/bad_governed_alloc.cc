// Must-flag: governed-alloc, six ways the regex linter structurally
// misses: the TupleSet class and ReachMap alias, an `auto` deduced to
// TupleSet (caught through its record name), an unordered_map keyed by
// tuples (caught through the IdTupleHash hasher evidence), a nested row-id
// matrix, and an unclassified field.
#include "fixture_stubs.h"

TupleSet MakeResult();

unsigned long Accumulate() {
  TupleSet seen;
  auto merged = MakeResult();
  std::vector<std::vector<RowId>> postings;
  ReachMap forward;
  std::unordered_map<std::vector<ValueId>, int, IdTupleHash> memo;
  postings.reserve(4);
  return seen.size() + merged.size() + postings.size() + forward.size() +
         memo.size();
}

struct CacheShard {
  TupleSet tuples_;
  int generation_ = 0;
};
