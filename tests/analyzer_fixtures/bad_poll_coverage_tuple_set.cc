// Must-flag: poll-coverage. TupleSet is a class, not an unordered_* alias,
// yet iterating one still scales with data: a set returned by value and a
// set held in a struct are both walked here without any interrupt poll.
#include "fixture_stubs.h"

TupleSet Project(unsigned long table);

struct Projection {
  // gov: charged - fixture stand-in for a governor-charged projection
  TupleSet tuples;
};

unsigned long CountProjected(unsigned long table) {
  unsigned long total = 0;
  for (const auto& t : Project(table)) {
    total += t.size();
  }
  return total;
}

unsigned long CountHeld(const Projection& p) {
  unsigned long total = 0;
  for (const auto& t : p.tuples) {
    total += t.size();
  }
  return total;
}
