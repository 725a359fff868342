// Workload decks of the repository benchmark (README.md in this directory).
//
// A deck is the list of R_out requests one workload sends. Library
// workloads run their deck as one "round" through FastQre::ReverseAll with
// a fresh engine per entry (the CLI's pattern); the service workload cycles
// its deck through the TCP server. Every entry carries the CSV bytes a
// client would send, and its R_out is that CSV parsed back, so the library
// and the wire paths see identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "qre/fastqre.h"
#include "storage/database.h"
#include "storage/table.h"

namespace fastqre::benchqre {

struct DeckEntry {
  /// Ladder query name ("L04"), with a "+sample" suffix for superset jobs
  /// on sampled tuples.
  std::string label;
  std::string rout_csv;
  Table rout{"rout", nullptr};
  QreVariant variant = QreVariant::kExact;
  int limit = 1;
};

struct Workload {
  std::string name;
  double scale = 0;  // TPC-H scale factor of the database it runs against
  bool service = false;
  std::vector<DeckEntry> deck;
};

/// TPC-H scale factor a workload runs at; 0 for an unknown name.
double WorkloadScale(const std::string& name);

/// Seed of the TPC-H database every workload runs against. The database
/// and the R_outs (rows in generation order) stay fixed across workload
/// seeds: at these scale factors the generator's seed changes the paper
/// queries' R_out sizes, and the row order changes which tuples probing
/// binds. At SF 0.004 on a 4-core x86 box, the median `paper` round took
/// 13 to 135 ms across six generator seeds and 30 to 110 ms across six
/// row orders.
inline constexpr uint64_t kTpchSeed = 42;

/// Builds workload `name` against `db` (TPC-H at WorkloadScale(name)).
/// `seed` drives the service deck: its order and the tuples its superset
/// jobs sample. Library decks have one order for every seed, because their
/// order moves the round by more than run-to-run noise: on the same box a
/// `paper` round took 108 ms with L09 before L10 and 98 ms with L10 first.
Result<Workload> BuildWorkload(const std::string& name, const Database& db,
                               uint64_t seed);

/// The engine options a deck entry runs with. The service's admitted slice
/// becomes the engine's memory budget, so service references use it too.
QreOptions EntryOptions(const DeckEntry& entry, bool service);

/// Memory slice every service job is admitted with.
inline constexpr uint64_t kServiceSliceBytes = 64ull << 20;

/// Checks every found answer of `answers` by executing its query and
/// comparing the result with the entry's R_out: set equality for exact
/// entries, containment for superset entries. Also fails when the list
/// holds an unfound entry or fewer than `entry.limit` answers. Returns the
/// first problem, or an empty string.
std::string VerifyAnswers(const Database& db, const DeckEntry& entry,
                          const std::vector<QreAnswer>& answers);

}  // namespace fastqre::benchqre
