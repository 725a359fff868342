// The repository benchmark (README.md in this directory).
//
//   bench_qre --workload {ladder|paper|enumerate|service} [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-out FILE] [--scale SF]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) measure the per-layer metrics. The last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line before
// it is "answers_digest <hex>", a hash of every answer's SQL in deck order.
// Exit status is 0 iff every answer was correct.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/qre/deck.h"
#include "bench/qre/replay.h"
#include "bench/qre/service.h"
#include "bench/qre/trace.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/timer.h"
#include "datagen/tpch.h"
#include "qre/fastqre.h"
#include "server/protocol.h"
#include "storage/csv.h"

using namespace fastqre;
using namespace fastqre::benchqre;

namespace {

// Set-up runs per process; setup_s reports their median, which stays put
// when one or two of them overlap a burst of host contention.
constexpr int kSetupRuns = 5;
// Fewest timed rounds of a library run, however long a round takes.
constexpr size_t kMinRounds = 3;
// Closed-loop wire connections of the service workload.
constexpr int kServiceConnections = 4;
// Jobs an untraced service run sends per measured second (2500 at the
// default 20 s; about what this deck completes per second on 4 cores), and
// the multiple of --seconds after which a slower build stops sending.
constexpr double kServiceJobsPerSecond = 125;
constexpr double kServiceDeadlineFactor = 3;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double scale = 0;  // 0: the workload's own scale factor
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    double number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (!ParseDouble(value, &number) || number < 0) {
      return false;
    } else if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--trace") {
      args->trace = number != 0;
    } else if (flag == "--scale") {
      args->scale = number;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && WorkloadScale(args->workload) > 0 &&
         args->seconds > 0;
}

// Everything a run sets up before it measures: the database, the deck, the
// batch reference of every distinct entry (the untimed warm pass) and, for
// the service workload, the running server.
struct Context {
  Database db;
  Workload workload;
  // One per distinct (variant, limit, R_out) entry, in first-use order.
  std::vector<size_t> first_entry;  // deck index of its first use
  std::vector<std::vector<QreAnswer>> ref_answers;
  std::vector<ReferenceStream> refs;
  std::vector<size_t> ref_of;  // per deck entry
  std::unique_ptr<Service> service;

  const ReferenceStream& RefOf(size_t entry) const {
    return refs[ref_of[entry]];
  }
  std::vector<const ReferenceStream*> RefPointers() const {
    std::vector<const ReferenceStream*> out;
    for (size_t r : ref_of) out.push_back(&refs[r]);
    return out;
  }
};

Result<std::unique_ptr<Context>> SetUp(const Args& args) {
  auto ctx = std::make_unique<Context>();
  const double scale =
      args.scale > 0 ? args.scale : WorkloadScale(args.workload);
  FASTQRE_ASSIGN_OR_RETURN(
      ctx->db, BuildTpch({.scale_factor = scale, .seed = kTpchSeed}));
  FASTQRE_ASSIGN_OR_RETURN(ctx->workload,
                           BuildWorkload(args.workload, ctx->db, args.seed));
  ctx->workload.scale = scale;
  const Workload& w = ctx->workload;
  std::map<std::string, size_t> ref_index;
  for (size_t i = 0; i < w.deck.size(); ++i) {
    const DeckEntry& e = w.deck[i];
    const std::string key = std::to_string(static_cast<int>(e.variant)) + "/" +
                            std::to_string(e.limit) + "/" + e.rout_csv;
    auto [it, inserted] = ref_index.emplace(key, ctx->refs.size());
    ctx->ref_of.push_back(it->second);
    if (!inserted) continue;
    FastQre engine(&ctx->db, EntryOptions(e, w.service));
    FASTQRE_ASSIGN_OR_RETURN(std::vector<QreAnswer> answers,
                             engine.ReverseAll(e.rout, e.limit));
    ReferenceStream ref;
    for (const QreAnswer& a : answers) {
      ref.push_back({a.found, a.sql, a.failure_reason});
    }
    ctx->first_entry.push_back(i);
    ctx->ref_answers.push_back(std::move(answers));
    ctx->refs.push_back(std::move(ref));
  }
  if (w.service) {
    ctx->service = std::make_unique<Service>(&ctx->db);
    FASTQRE_RETURN_NOT_OK(ctx->service->Start());
  }
  return ctx;
}

bool SameStream(const std::vector<QreAnswer>& got, const ReferenceStream& ref) {
  if (got.size() != ref.size()) return false;
  for (size_t k = 0; k < ref.size(); ++k) {
    if (got[k].found != ref[k].found || got[k].sql != ref[k].sql ||
        got[k].failure_reason != ref[k].failure_reason) {
      return false;
    }
  }
  return true;
}

// Nearest-rank percentile of `values` (copied, then sorted).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double MaxRssMb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(std::string why, uint64_t n = 1) {
    failed += n;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    entries_.push_back({name, value, unit});
  }

  std::string ToJson() const {
    std::string out;
    for (const auto& e : entries_) {
      out += StringFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          out.empty() ? "" : ", ", e.name.c_str(), e.value,
                          e.unit);
    }
    return "{" + out + "}";
  }

  void Print(std::FILE* f) const {
    for (const auto& e : entries_) {
      std::fprintf(f, "  %-32s %14.4f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// One library round: every entry of `entries` through a fresh engine.
// Returns the round's wall time in ms. `request_ms` (optional) receives
// each entry's latency in its k-th list, `last` (optional) each entry's
// answers.
double LibraryRound(const Context& ctx, const std::vector<size_t>& entries,
                    Outcome* out,
                    std::vector<std::vector<double>>* request_ms = nullptr,
                    std::vector<std::vector<QreAnswer>>* last = nullptr) {
  const Workload& w = ctx.workload;
  Timer round;
  for (size_t k = 0; k < entries.size(); ++k) {
    const DeckEntry& e = w.deck[entries[k]];
    Timer request;
    FastQre engine(&ctx.db, EntryOptions(e, w.service));
    Result<std::vector<QreAnswer>> got = engine.ReverseAll(e.rout, e.limit);
    if (request_ms != nullptr) {
      (*request_ms)[k].push_back(request.ElapsedMillis());
    }
    ++out->attempted;
    if (!got.ok() || !SameStream(*got, ctx.RefOf(entries[k]))) {
      out->Fail(e.label + ": answers differ from the reference");
    } else if (last != nullptr) {
      (*last)[k] = std::move(*got);
    }
  }
  return round.ElapsedMillis();
}

std::vector<size_t> AllEntries(const Context& ctx) {
  std::vector<size_t> all(ctx.workload.deck.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

// ---- Untraced run: end-to-end metrics --------------------------------------

void MeasureEndToEnd(Context* ctx, const Args& args, Metrics* m,
                     Outcome* out) {
  // Medians throughout, so that short bursts of host contention move no
  // metric. p50: of rounds on library workloads (one pass over the deck,
  // the same work every round), of jobs on the service. Tail: p99 of the
  // service's thousands of jobs, the highest percentile with ten samples
  // beyond it. A library deck sends the same requests every round, so the
  // spread of one request's latencies is host noise alone; its tail is the
  // p90 over the deck's requests of each request's median latency.
  // jobs_per_s: at the median round, or over the median one-second window
  // of service completions.
  std::vector<double> p50_ms, tail_of;
  double tail_p = 0.90;
  double jobs_per_s = 0;
  if (ctx->workload.service) {
    // A fixed job count rather than a fixed time: the server keeps every
    // finished job, so its memory grows with the jobs it has served.
    const uint64_t jobs = static_cast<uint64_t>(
        std::llround(kServiceJobsPerSecond * args.seconds));
    const ServiceResult r = ctx->service->Run(
        ctx->workload.deck, ctx->RefPointers(), kServiceConnections, jobs,
        kServiceDeadlineFactor * args.seconds, nullptr);
    out->attempted += r.attempted;
    for (const std::string& p : r.problems) out->Fail(p, 0);
    out->failed += r.failed;
    std::vector<double> per_window(
        std::max<size_t>(1, static_cast<size_t>(r.wall_s)), 0);
    for (const JobRecord& j : r.jobs) {
      p50_ms.push_back(j.total_ms);
      const size_t w = static_cast<size_t>(j.end_s);
      if (w < per_window.size()) ++per_window[w];
    }
    tail_of = p50_ms;
    tail_p = 0.99;
    jobs_per_s = Percentile(per_window, 0.5);
  } else {
    const std::vector<size_t> all = AllEntries(*ctx);
    std::vector<std::vector<double>> request_ms(all.size());
    Timer total;
    while (total.ElapsedSeconds() < args.seconds ||
           p50_ms.size() < kMinRounds) {
      p50_ms.push_back(LibraryRound(*ctx, all, out, &request_ms));
    }
    for (const std::vector<double>& v : request_ms) {
      tail_of.push_back(Percentile(v, 0.5));
    }
    jobs_per_s =
        static_cast<double>(all.size()) / (Percentile(p50_ms, 0.5) / 1e3);
  }
  m->Add("latency_ms.p50", Percentile(p50_ms, 0.50), "ms");
  m->Add("latency_ms.tail", Percentile(tail_of, tail_p), "ms");
  m->Add("jobs_per_s", jobs_per_s, "1/s");
  std::fprintf(stderr, "bench_qre: %zu %s measured\n", p50_ms.size(),
               ctx->workload.service ? "jobs" : "rounds");
}

// ---- Traced run: per-layer metrics ------------------------------------------

// Entries the traced replay runs: the library deck, or one entry per
// distinct (query, variant, limit) of the service deck.
std::vector<size_t> ReplayEntries(const Context& ctx) {
  if (!ctx.workload.service) return AllEntries(ctx);
  std::vector<size_t> out;
  std::set<std::string> seen;
  for (size_t i = 0; i < ctx.workload.deck.size(); ++i) {
    const DeckEntry& e = ctx.workload.deck[i];
    if (seen.insert(e.label + "/" + std::to_string(e.limit)).second) {
      out.push_back(i);
    }
  }
  return out;
}

void MeasureLayers(Context* ctx, const Args& args, SpanRecorder* rec,
                   Metrics* m, Outcome* out) {
  const Workload& w = ctx->workload;
  const double phase_s = args.seconds / 3;
  const std::vector<size_t> entries = ReplayEntries(*ctx);

  // Phase A: untraced rounds, the base of trace.overhead and the engine
  // answers the replay must reproduce.
  std::vector<std::vector<QreAnswer>> engine_answers(entries.size());
  std::vector<double> plain_ms;
  Timer phase;
  while (phase.ElapsedSeconds() < phase_s || plain_ms.empty()) {
    plain_ms.push_back(
        LibraryRound(*ctx, entries, out, nullptr, &engine_answers));
  }

  // Phase B: traced replay rounds.
  std::vector<LayerTotals> rounds;
  std::vector<double> traced_ms;
  phase.Reset();
  while (phase.ElapsedSeconds() < phase_s || rounds.empty()) {
    LayerTotals totals;
    Timer round;
    for (size_t k = 0; k < entries.size(); ++k) {
      const DeckEntry& e = w.deck[entries[k]];
      Result<std::vector<QreAnswer>> got = ReplayReverseAll(
          ctx->db, e.rout, e.limit, EntryOptions(e, w.service), rec, &totals);
      ++out->attempted;
      const std::string diff =
          got.ok() ? SameSearch(engine_answers[k], *got)
                   : got.status().message();
      if (!diff.empty()) out->Fail(e.label + ": replay differs: " + diff);
    }
    traced_ms.push_back(round.ElapsedMillis());
    rounds.push_back(totals);
  }

  // Phase C: the wire path, timed from the client.
  std::unique_ptr<Service> own_service;
  Service* service = ctx->service.get();
  int connections = kServiceConnections;
  if (service == nullptr) {
    // Library workloads send their deck one job at a time.
    own_service = std::make_unique<Service>(&ctx->db);
    const Status started = own_service->Start();
    if (!started.ok()) return out->Fail("server start: " + started.message());
    service = own_service.get();
    connections = 1;
  }
  const ServiceResult sr =
      service->Run(w.deck, ctx->RefPointers(), connections,
                   std::numeric_limits<uint64_t>::max(), phase_s, rec);
  out->attempted += sr.attempted;
  for (const std::string& p : sr.problems) out->Fail(p, 0);
  out->failed += sr.failed;

  // Request decoding outside the server: ParseRequest + LoadCsvString on
  // the payloads the wire path sent.
  std::vector<double> decode_ms;
  for (int rep = 0; rep < 5; ++rep) {
    for (const DeckEntry& e : w.deck) {
      Request req;
      req.verb = Verb::kSubmit;
      req.db = "tpch";
      req.tenant = "bench";
      req.rout_csv = e.rout_csv;
      req.options.superset = e.variant == QreVariant::kSuperset;
      req.options.limit = e.limit;
      const std::string payload = SerializeRequest(req);
      Timer t;
      Result<Request> parsed = ParseRequest(payload);
      Result<Table> table =
          parsed.ok() ? LoadCsvString(parsed->rout_csv, "rout",
                                      ctx->db.dictionary())
                      : Result<Table>(parsed.status());
      decode_ms.push_back(t.ElapsedMillis());
      if (!table.ok()) out->Fail(e.label + ": decode failed");
    }
  }

  // ---- Metrics -------------------------------------------------------------
  const IndexBuildStats& idx = ctx->db.index_stats();
  m->Add("storage.index_build_ms", idx.build_seconds.value() * 1e3, "ms");
  m->Add("storage.indexes_built",
         static_cast<double>(idx.indexes_built.value()), "count");

  auto median_of = [&](double LayerTotals::*field) {
    std::vector<double> v;
    for (const LayerTotals& t : rounds) v.push_back(t.*field);
    return Percentile(v, 0.5);
  };
  const LayerTotals& last = rounds.back();
  const QreStats& s = last.stats;
  auto count = [&](const char* name, uint64_t v) {
    m->Add(name, static_cast<double>(v), "count");
  };
  m->Add("qre.rout_set_ms", median_of(&LayerTotals::rout_set_ms), "ms");
  m->Add("qre.cover_ms", median_of(&LayerTotals::cover_ms), "ms");
  count("qre.cover_pairs_checked", s.cover_pairs_checked);
  count("qre.cover_pairs_pruned", s.cover_pairs_pruned);
  m->Add("qre.cgm_ms", median_of(&LayerTotals::cgm_ms), "ms");
  count("qre.cgm_candidates_checked", s.cgm_candidates_checked);

  m->Add("qre.mapping_ms", median_of(&LayerTotals::mapping_ms), "ms");
  count("qre.mappings_tried", s.mappings_tried);
  m->Add("qre.walks_ms", median_of(&LayerTotals::walks_ms), "ms");
  count("qre.walks_discovered", s.walks_discovered);
  m->Add("qre.compose_ms", median_of(&LayerTotals::compose_ms), "ms");
  count("qre.walk_sets_expanded", s.walk_sets_expanded);
  count("qre.candidates_pruned_dead", s.candidates_pruned_dead);
  count("qre.candidates_generated", s.candidates_generated);

  m->Add("qre.validate_ms", median_of(&LayerTotals::validate_ms), "ms");
  m->Add("qre.validate_ms.accepted",
         median_of(&LayerTotals::validate_accepted_ms), "ms");
  count("qre.validate_calls", last.validate_calls);
  count("qre.dismissed_probe", s.candidates_dismissed_probe);
  count("qre.dismissed_walk", s.candidates_dismissed_walk);
  count("qre.full_validations", s.full_validations);
  m->Add("qre.validate.useful_ratio",
         Ratio(static_cast<double>(last.validate_accepted),
               static_cast<double>(last.validate_calls)),
         "ratio");

  count("engine.validation_rows", s.validation_rows);
  count("engine.probe_rows", s.probe_rows);
  count("engine.coherence_rows", s.coherence_rows);
  count("engine.alltuple_rows", s.alltuple_rows);
  count("engine.fullscan_rows", s.fullscan_rows);
  count("engine.sip_rows_skipped", s.sip_rows_skipped);
  m->Add("engine.walk_cache.hit_ratio",
         Ratio(static_cast<double>(s.walk_cache_hits),
               static_cast<double>(s.walk_cache_hits + s.walk_cache_misses)),
         "ratio");
  m->Add("engine.walk_cache.mb",
         static_cast<double>(last.max_walk_cache_bytes) / (1 << 20), "MB");
  m->Add("engine.subplan_cache.hit_ratio",
         Ratio(static_cast<double>(s.subplan_cache_hits),
               static_cast<double>(s.subplan_cache_hits +
                                   s.subplan_cache_misses)),
         "ratio");
  m->Add("engine.subplan_cache.mb",
         static_cast<double>(last.max_subplan_cache_bytes) / (1 << 20), "MB");
  m->Add("engine.peak_tracked_mb",
         static_cast<double>(s.peak_tracked_bytes.value()) / (1 << 20), "MB");

  // wait: the part of submit -> done the engine was not running (request
  // transfer and decoding, admission, waiting for a worker, streaming).
  // The engine starts before the client reads `accepted`, so no narrower
  // client-side window contains the run.
  std::vector<double> admit, wait, run, first, drain;
  double frames = 0;
  for (const JobRecord& j : sr.jobs) {
    admit.push_back(j.admit_ms);
    wait.push_back(j.total_ms - j.run_ms);
    run.push_back(j.run_ms);
    first.push_back(j.first_answer_ms);
    drain.push_back(j.drain_ms);
    frames += j.frames;
  }
  m->Add("server.decode_ms.p50", Percentile(decode_ms, 0.5), "ms");
  m->Add("server.admit_ms.p50", Percentile(admit, 0.5), "ms");
  m->Add("server.wait_ms.p50", Percentile(wait, 0.5), "ms");
  m->Add("server.run_ms.p50", Percentile(run, 0.5), "ms");
  m->Add("server.first_answer_ms.p50", Percentile(first, 0.5), "ms");
  m->Add("server.drain_ms.p50", Percentile(drain, 0.5), "ms");
  m->Add("server.frames_per_job",
         Ratio(frames, static_cast<double>(sr.jobs.size())), "count");

  double covered = 0, wall = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    covered += rounds[r].covered_ms;
    wall += traced_ms[r];
  }
  m->Add("trace.coverage", Ratio(covered, wall), "ratio");
  m->Add("trace.overhead",
         Percentile(traced_ms, 0.5) / Percentile(plain_ms, 0.5) - 1, "ratio");
  std::fprintf(stderr,
               "bench_qre: %zu untraced + %zu traced rounds, %zu wire jobs\n",
               plain_ms.size(), traced_ms.size(), sr.jobs.size());
}

// Hash of every reference answer's SQL (and failure reason) in deck order.
uint64_t AnswersDigest(const Context& ctx) {
  uint64_t h = HashString(ctx.workload.name);
  for (size_t i = 0; i < ctx.workload.deck.size(); ++i) {
    for (const ReferenceAnswer& a : ctx.RefOf(i)) {
      h = HashCombine(h, HashString(a.found ? a.sql : a.failure_reason));
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_qre --workload {ladder|paper|enumerate|service}"
                 " [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]"
                 " [--scale SF]\n");
    return 2;
  }

  // Set-up, repeated; the previous context is torn down untimed.
  std::unique_ptr<Context> ctx;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    ctx.reset();
    Timer t;
    Result<std::unique_ptr<Context>> made = SetUp(args);
    setup_s.push_back(t.ElapsedSeconds());
    if (!made.ok()) {
      std::fprintf(stderr, "bench_qre: set-up failed: %s\n",
                   made.status().message().c_str());
      return 1;
    }
    ctx = std::move(*made);
  }

  Outcome out;
  Metrics metrics;
  SpanRecorder recorder;
  if (args.trace) {
    MeasureLayers(ctx.get(), args, &recorder, &metrics, &out);
  } else {
    metrics.Add("setup_s", Percentile(setup_s, 0.5), "s");
    MeasureEndToEnd(ctx.get(), args, &metrics, &out);
    metrics.Add("max_rss_mb", MaxRssMb(), "MB");
  }

  // Every distinct answer is executed and compared with its R_out.
  for (size_t r = 0; r < ctx->refs.size(); ++r) {
    const DeckEntry& e = ctx->workload.deck[ctx->first_entry[r]];
    const std::string problem =
        VerifyAnswers(ctx->db, e, ctx->ref_answers[r]);
    if (!problem.empty()) out.Fail(problem);
  }
  if (args.trace && !args.trace_out.empty()) {
    const Status written = recorder.WriteChromeTrace(args.trace_out);
    if (!written.ok()) out.Fail(written.message());
  }

  std::fprintf(stderr, "bench_qre: workload %s, seed %llu, %llu attempted, "
               "%llu failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  metrics.Print(stderr);
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "bench_qre: FAIL %s\n", p.c_str());
  }
  const bool correct = out.failed == 0 && out.problems.empty();
  std::printf("scale %g\n", ctx->workload.scale);
  std::printf("answers_digest %016llx\n",
              static_cast<unsigned long long>(AnswersDigest(*ctx)));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  out.attempted, 1)),
              static_cast<unsigned long long>(out.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  ctx.reset();
  return correct ? 0 : 1;
}
