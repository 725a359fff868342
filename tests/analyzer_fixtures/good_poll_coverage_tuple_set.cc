// Must-pass: poll-coverage. The bad twin's two TupleSet loops, each with
// the masked-counter interrupt poll.
#include "fixture_stubs.h"

TupleSet Project(unsigned long table);

struct Projection {
  // gov: charged - fixture stand-in for a governor-charged projection
  TupleSet tuples;
};

unsigned long CountProjected(unsigned long table, const RunControl& rc) {
  unsigned long total = 0;
  unsigned long seen = 0;
  for (const auto& t : Project(table)) {
    if ((++seen & kInterruptPollMask) == 0 && rc.ShouldStop()) break;
    total += t.size();
  }
  return total;
}

unsigned long CountHeld(const Projection& p, const RunControl& rc) {
  unsigned long total = 0;
  unsigned long seen = 0;
  for (const auto& t : p.tuples) {
    if ((++seen & kInterruptPollMask) == 0 && rc.ShouldStop()) break;
    total += t.size();
  }
  return total;
}
