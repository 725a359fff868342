#include "bench/qre/deck.h"

#include <utility>

#include "common/rng.h"
#include "datagen/workload.h"
#include "engine/compare.h"
#include "engine/executor.h"
#include "storage/csv.h"

namespace fastqre::benchqre {
namespace {

// Service deck composition per kServiceDeckJobs (README.md, "service"):
// the band sizes are fixed so every seed sends the same mix, and the seed
// only chooses sampled tuples and the order of the lighter jobs.
constexpr int kServiceDeckJobs = 200;
constexpr int kSupersetJobs = 70;  // 35%: engine work under 1 ms
constexpr int kHotJobs = 80;       // 40%: exact L04, the repeated query
constexpr int kMidJobs = 40;       // 20%: exact L05/L06/L07/L09, limit 1-3
constexpr int kHeavyJobs = 10;     // 5%: exact L10, limit 2
static_assert(kSupersetJobs + kHotJobs + kMidJobs + kHeavyJobs ==
              kServiceDeckJobs);
constexpr size_t kSampleTuples = 10;

Result<DeckEntry> MakeEntry(const Database& db, std::string label,
                            const Table& rout, QreVariant variant, int limit) {
  DeckEntry e;
  e.label = std::move(label);
  e.rout_csv = TableToCsv(rout);
  FASTQRE_ASSIGN_OR_RETURN(e.rout,
                           LoadCsvString(e.rout_csv, "rout", db.dictionary()));
  e.variant = variant;
  e.limit = limit;
  return e;
}

const WorkloadQuery* Find(const std::vector<WorkloadQuery>& ladder,
                          const std::string& name) {
  for (const WorkloadQuery& q : ladder) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

Result<Table> SampleTuples(const Database& db, const Table& rout, Rng* rng) {
  Table sample("sample", db.dictionary());
  for (size_t c = 0; c < rout.num_columns(); ++c) {
    FASTQRE_RETURN_NOT_OK(
        sample.AddColumn(rout.column(c).name(), rout.column(c).type()));
  }
  for (size_t k = 0; k < kSampleTuples; ++k) {
    sample.AppendRowIds(
        rout.RowIds(static_cast<RowId>(rng->Uniform(rout.num_rows()))));
  }
  return sample;
}

}  // namespace

double WorkloadScale(const std::string& name) {
  if (name == "ladder") return 0.008;
  if (name == "paper" || name == "enumerate" || name == "service") {
    return 0.004;
  }
  return 0;
}

Result<Workload> BuildWorkload(const std::string& name, const Database& db,
                               uint64_t seed) {
  FASTQRE_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> ladder,
                           StandardTpchWorkload(db));
  Workload w;
  w.name = name;
  auto add = [&](const std::string& query, QreVariant variant,
                 int limit) -> Status {
    const WorkloadQuery* q = Find(ladder, query);
    if (q == nullptr) return Status::NotFound("no ladder query " + query);
    FASTQRE_ASSIGN_OR_RETURN(DeckEntry e,
                             MakeEntry(db, query, q->rout, variant, limit));
    w.deck.push_back(std::move(e));
    return Status::OK();
  };

  Rng rng(SplitMix64(seed ^ 0x5e7f1ceULL));
  if (name == "ladder") {
    for (const char* q : {"L01", "L02", "L03", "L04", "L05", "L06", "L07",
                          "L08"}) {
      FASTQRE_RETURN_NOT_OK(add(q, QreVariant::kExact, 1));
    }
  } else if (name == "paper") {
    FASTQRE_RETURN_NOT_OK(add("L09", QreVariant::kExact, 1));
    FASTQRE_RETURN_NOT_OK(add("L10", QreVariant::kExact, 1));
  } else if (name == "enumerate") {
    for (const char* q : {"L04", "L07", "L09"}) {
      FASTQRE_RETURN_NOT_OK(add(q, QreVariant::kExact, 4));
    }
  } else if (name == "service") {
    w.service = true;
    const std::vector<std::string> small = {"L01", "L02", "L03", "L04",
                                            "L05", "L06", "L07", "L08"};
    for (int i = 0; i < kSupersetJobs; ++i) {
      const std::string& query = small[static_cast<size_t>(i) % small.size()];
      const WorkloadQuery* q = Find(ladder, query);
      if (q == nullptr) return Status::NotFound("no ladder query " + query);
      FASTQRE_ASSIGN_OR_RETURN(Table sample, SampleTuples(db, q->rout, &rng));
      FASTQRE_ASSIGN_OR_RETURN(
          DeckEntry e,
          MakeEntry(db, query + "+sample", sample, QreVariant::kSuperset, 1));
      w.deck.push_back(std::move(e));
    }
    for (int i = 0; i < kHotJobs; ++i) {
      FASTQRE_RETURN_NOT_OK(add("L04", QreVariant::kExact, 1));
    }
    const std::vector<std::string> mid = {"L05", "L06", "L07", "L09"};
    for (int i = 0; i < kMidJobs; ++i) {
      FASTQRE_RETURN_NOT_OK(add(mid[static_cast<size_t>(i) % mid.size()],
                                QreVariant::kExact, 1 + (i / 4) % 3));
    }
    rng.Shuffle(&w.deck);
    // Heavy jobs go one per block of kServiceDeckJobs / kHeavyJobs, so the
    // seed does not decide how many run at once. Where a shuffle clustered
    // them, the server's peak memory varied by 11% between seeds.
    std::vector<DeckEntry> light = std::move(w.deck);
    w.deck.clear();
    const size_t block = kServiceDeckJobs / kHeavyJobs;
    for (size_t i = 0; i < light.size(); ++i) {
      if (i % (block - 1) == 0) {
        FASTQRE_RETURN_NOT_OK(add("L10", QreVariant::kExact, 2));
      }
      w.deck.push_back(std::move(light[i]));
    }
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return w;
}

QreOptions EntryOptions(const DeckEntry& entry, bool service) {
  QreOptions opts;
  opts.variant = entry.variant;
  if (service) opts.memory_budget_bytes = kServiceSliceBytes;
  return opts;
}

std::string VerifyAnswers(const Database& db, const DeckEntry& entry,
                          const std::vector<QreAnswer>& answers) {
  if (answers.size() != static_cast<size_t>(entry.limit)) {
    return entry.label + ": " + std::to_string(answers.size()) +
           " answers for limit " + std::to_string(entry.limit);
  }
  const TupleSet want = TableToTupleSet(entry.rout);
  for (const QreAnswer& a : answers) {
    if (!a.found) return entry.label + ": not found: " + a.failure_reason;
    Result<Table> got = ExecuteToTable(db, a.query, "verify");
    if (!got.ok()) {
      return entry.label + ": executing " + a.sql + ": " +
             got.status().message();
    }
    const TupleSet have = TableToTupleSet(*got);
    const bool ok = entry.variant == QreVariant::kExact
                        ? have == want
                        : IsSubsetOf(want, have);
    if (!ok) return entry.label + ": answer does not generate R_out: " + a.sql;
  }
  return "";
}

}  // namespace fastqre::benchqre
