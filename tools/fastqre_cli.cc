// fastqre — command-line front end.
//
//   fastqre gen-tpch --out DIR [--scale S] [--seed N]
//       Generate a TPC-H database directory.
//   fastqre info --db DIR
//       Print schema, row counts and the pk-fk graph.
//   fastqre demo-rout --db DIR --query L01..L10 --out FILE.csv
//       Materialize a ladder query's output as a CSV "report" to reverse.
//   fastqre reverse --db DIR --rout FILE.csv [--superset] [--budget S]
//                   [--alpha A] [--all K] [--threads N] [--intra-threads N]
//                   [--morsel-size M] [--no-batch] [--no-sip]
//                   [--walk-cache-mb MB] [--subplan-cache-mb MB]
//                   [--memory-budget-mb MB] [--cancel-after S]
//                   [--stats] [--stats-json] [--verify] [--trace]
//       Reverse engineer a generating query for the report. --threads N
//       validates candidates on N worker threads; the answer is identical
//       to a single-threaded run (rank-deterministic), just faster.
//       --intra-threads N additionally runs morsels *inside* one candidate's
//       all-tuple probe pass on N workers (the probe runs for superset
//       candidates and for exact ones the extras walk dismissed);
//       --morsel-size sets the tuples-per-morsel granularity (also the
//       block executor's interrupt-poll stride) and --no-batch falls back
//       to the scalar probe kernels (DESIGN.md §12) — all three leave the
//       answer byte-identical.
//       --no-sip disables sideways-information-passing bitmap filters and
//       --subplan-cache-mb sets the budget of the exact extras check's
//       cross-candidate subplan memoization (0 disables; DESIGN.md §13) —
//       the E15 ablation axes, again answer-preserving.
//       --memory-budget-mb caps the tracked search-path allocations
//       (DESIGN.md §11; 0 = unlimited); --cancel-after fires Cancel() from a
//       watchdog thread after S seconds — the external-cancellation test
//       hook, exercising the same path a Ctrl-C handler would.
//       --stats-json prints the statistics of each answer as one JSON
//       object per line (machine-readable counterpart of --stats).
//   fastqre run --db DIR --sql "SELECT a.x FROM t a WHERE ..." [--limit N]
//       Execute a PJ query and print its (distinct) result rows.
//   fastqre tune --db DIR
//       Calibrate alpha on self-generated test queries (Section 4.4.2).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "common/table_printer.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "engine/executor.h"
#include "engine/sql_parser.h"
#include "qre/fastqre.h"
#include "qre/tuning.h"
#include "storage/catalog_io.h"
#include "storage/csv.h"

using namespace fastqre;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fastqre gen-tpch --out DIR [--scale S] [--seed N]\n"
      "  fastqre info --db DIR\n"
      "  fastqre demo-rout --db DIR --query L01..L10 --out FILE.csv\n"
      "  fastqre reverse --db DIR --rout FILE.csv [--superset] [--budget S]\n"
      "                  [--alpha A] [--all K] [--threads N]\n"
      "                  [--intra-threads N] [--morsel-size M] [--no-batch]\n"
      "                  [--no-sip] [--walk-cache-mb MB]\n"
      "                  [--subplan-cache-mb MB] [--memory-budget-mb MB]\n"
      "                  [--cancel-after S] [--stats] [--stats-json]\n"
      "                  [--verify] [--trace]\n"
      "  fastqre run --db DIR --sql QUERY [--limit N]\n"
      "  fastqre tune --db DIR\n"
      "\n"
      "reverse exit codes:\n"
      "  0  a generating query was found (run completed)\n"
      "  1  search space exhausted without an answer\n"
      "  2  usage error\n"
      "  3  stopped early (deadline / cancel / memory budget); any answers\n"
      "     proved before the stop were still printed\n");
  return 2;
}

// Tiny flag parser: --name value and boolean --name.
struct Flags {
  std::map<std::string, std::string> values;
  bool Has(const std::string& name) const { return values.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback = "") const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    double out = fallback;
    if (Has(name)) (void)ParseDouble(Get(name), &out);
    return out;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    int64_t out = fallback;
    if (Has(name)) (void)ParseInt64(Get(name), &out);
    return out;
  }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string name = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags.values[name] = argv[++i];
    } else {
      flags.values[name] = "true";
    }
  }
  return flags;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

// One answer as a single-line JSON object (--stats-json): its outcome, then
// every QreStats field under the field's own name, so scripts can diff
// ablation runs without scraping the text format.
std::string StatsToJson(const QreStats& s, bool found,
                        const std::string& failure_reason) {
  std::string out = StringFormat("{\"found\":%s,", found ? "true" : "false");
  if (!found) {
    std::string escaped;
    for (char c : failure_reason) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += StringFormat("\"failure_reason\":\"%s\",", escaped.c_str());
  }
  return out + s.JsonMembers() + "}";
}

int CmdGenTpch(const Flags& flags) {
  if (!flags.Has("out")) return Usage();
  TpchOptions opts;
  opts.scale_factor = flags.GetDouble("scale", 0.002);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto db = BuildTpch(opts);
  if (!db.ok()) return Fail(db.status());
  Status st = SaveDatabase(*db, flags.Get("out"));
  if (!st.ok()) return Fail(st);
  std::printf("wrote TPC-H (scale=%.4g, %zu rows) to %s\n", opts.scale_factor,
              db->TotalRows(), flags.Get("out").c_str());
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (!flags.Has("db")) return Usage();
  auto db = LoadDatabase(flags.Get("db"));
  if (!db.ok()) return Fail(db.status());
  TablePrinter tables("tables", {"table", "rows", "columns"});
  for (TableId t = 0; t < db->num_tables(); ++t) {
    std::vector<std::string> cols;
    for (ColumnId c = 0; c < db->table(t).num_columns(); ++c) {
      cols.push_back(db->table(t).column(c).name());
    }
    tables.AddRow({db->table(t).name(), FormatCount(db->table(t).num_rows()),
                   JoinStrings(cols, ", ")});
  }
  tables.Print();
  TablePrinter edges("schema graph", {"edge", "join condition"});
  for (const auto& e : db->schema_graph().edges()) {
    edges.AddRow({StringFormat("e%u", e.id),
                  db->table(e.table[0]).name() + "." +
                      db->table(e.table[0]).column(e.column[0]).name() + " = " +
                      db->table(e.table[1]).name() + "." +
                      db->table(e.table[1]).column(e.column[1]).name()});
  }
  edges.Print();
  return 0;
}

int CmdDemoRout(const Flags& flags) {
  if (!flags.Has("db") || !flags.Has("query") || !flags.Has("out")) {
    return Usage();
  }
  auto db = LoadDatabase(flags.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto workload = StandardTpchWorkload(*db);
  if (!workload.ok()) return Fail(workload.status());
  for (const auto& wq : *workload) {
    if (wq.name != flags.Get("query")) continue;
    std::FILE* f = std::fopen(flags.Get("out").c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write " + flags.Get("out")));
    }
    std::string csv = TableToCsv(wq.rout);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("wrote %zu rows of %s (%s) to %s\nsecret query was:\n  %s\n",
                wq.rout.num_rows(), wq.name.c_str(), wq.description.c_str(),
                flags.Get("out").c_str(), wq.query.ToSql(*db).c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown query '%s' (expect L01..L10)\n",
               flags.Get("query").c_str());
  return 1;
}

int CmdReverse(const Flags& flags) {
  if (!flags.Has("db") || !flags.Has("rout")) return Usage();
  auto db = LoadDatabase(flags.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto rout = LoadCsvFile(flags.Get("rout"), "rout", db->dictionary());
  if (!rout.ok()) return Fail(rout.status());

  QreOptions opts;
  if (flags.Has("superset")) opts.variant = QreVariant::kSuperset;
  opts.time_budget_seconds = flags.GetDouble("budget", 0.0);
  opts.alpha = flags.GetDouble("alpha", opts.alpha);
  opts.collect_trace = flags.Has("trace");
  opts.validation_threads = static_cast<int>(flags.GetInt("threads", 1));
  if (opts.validation_threads < 1) {
    std::fprintf(stderr, "error: --threads must be >= 1\n");
    return 2;
  }
  opts.intra_candidate_threads =
      static_cast<int>(flags.GetInt("intra-threads", 1));
  if (opts.intra_candidate_threads < 1) {
    std::fprintf(stderr, "error: --intra-threads must be >= 1\n");
    return 2;
  }
  opts.morsel_size =
      static_cast<int>(flags.GetInt("morsel-size", opts.morsel_size));
  if (opts.morsel_size < 1) {
    std::fprintf(stderr, "error: --morsel-size must be >= 1\n");
    return 2;
  }
  if (flags.Has("no-batch")) opts.use_batched_probes = false;
  if (flags.Has("no-sip")) opts.use_sip = false;
  long long cache_mb = flags.GetInt("walk-cache-mb", 64);
  if (cache_mb < 0) {
    std::fprintf(stderr, "error: --walk-cache-mb must be >= 0\n");
    return 2;
  }
  opts.walk_cache_budget_bytes = static_cast<uint64_t>(cache_mb) << 20;
  long long subplan_mb = flags.GetInt("subplan-cache-mb", 64);
  if (subplan_mb < 0) {
    std::fprintf(stderr, "error: --subplan-cache-mb must be >= 0\n");
    return 2;
  }
  opts.subplan_cache_budget_bytes = static_cast<uint64_t>(subplan_mb) << 20;
  long long mem_mb = flags.GetInt("memory-budget-mb", 0);
  if (mem_mb < 0) {
    std::fprintf(stderr, "error: --memory-budget-mb must be >= 0\n");
    return 2;
  }
  opts.memory_budget_bytes = static_cast<uint64_t>(mem_mb) << 20;
  int limit = static_cast<int>(flags.GetInt("all", 1));
  double cancel_after = flags.GetDouble("cancel-after", -1.0);

  FastQre engine(&*db, opts);
  // External cancellation: a watchdog thread calls Cancel() after the
  // deadline, unless the search wins the race and finishes first.
  std::thread watchdog;
  std::atomic<bool> reverse_done{false};
  if (cancel_after >= 0) {
    watchdog = std::thread([&engine, &reverse_done, cancel_after] {
      Timer timer;
      while (!reverse_done.load(std::memory_order_acquire)) {
        if (timer.ElapsedSeconds() >= cancel_after) {
          engine.Cancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  auto answers = engine.ReverseAll(*rout, limit);
  reverse_done.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  if (!answers.ok()) return Fail(answers.status());

  int rc = 1;
  for (const auto& a : *answers) {
    if (a.found) {
      std::printf("%s\n", a.sql.c_str());
      rc = 0;
      if (flags.Has("verify")) {
        auto regen = ExecuteToTable(*db, a.query, "regen");
        if (!regen.ok()) return Fail(regen.status());
        std::printf("verify: query yields %zu distinct rows; R_out has %zu\n",
                    regen->num_rows(), rout->num_rows());
      }
    } else {
      std::printf("no generating query: %s\n", a.failure_reason.c_str());
    }
    if (flags.Has("stats")) {
      std::printf("%s\n", a.stats.ToString().c_str());
    }
    if (flags.Has("stats-json")) {
      std::printf("%s\n",
                  StatsToJson(a.stats, a.found, a.failure_reason).c_str());
    }
    if (flags.Has("trace")) {
      std::printf("%s", a.trace.ToString().c_str());
    }
  }
  // Partial-result contract: a run that STOPPED (deadline / cancel /
  // memory) exits 3 whether or not answers were proved first, so scripts
  // can tell a truncated enumeration from a completed one (0 = found,
  // 1 = search space exhausted without an answer). The stopped run's
  // proved answers were still printed above, and with --stats-json every
  // entry — including the truncation tail with its failure_reason — was
  // emitted as valid JSON.
  if (!answers->empty() && !answers->back().found) {
    const std::string& reason = answers->back().failure_reason;
    if (reason == "time budget exceeded" || reason == "cancelled" ||
        reason == "memory budget exceeded") {
      rc = 3;
    }
  }
  return rc;
}

int CmdRun(const Flags& flags) {
  if (!flags.Has("db") || !flags.Has("sql")) return Usage();
  auto db = LoadDatabase(flags.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto query = ParsePJQuery(*db, flags.Get("sql"));
  if (!query.ok()) return Fail(query.status());
  auto result = ExecuteToTable(*db, *query, "result");
  if (!result.ok()) return Fail(result.status());
  int64_t limit = flags.GetInt("limit", 20);
  std::string csv = TableToCsv(*result);
  // Print header + up to `limit` rows.
  size_t printed = 0, pos = 0;
  while (pos < csv.size() && printed <= static_cast<size_t>(limit)) {
    size_t nl = csv.find('\n', pos);
    if (nl == std::string::npos) break;
    std::printf("%.*s\n", static_cast<int>(nl - pos), csv.data() + pos);
    pos = nl + 1;
    ++printed;
  }
  if (result->num_rows() > static_cast<size_t>(limit)) {
    std::printf("... (%zu rows total)\n", result->num_rows());
  }
  return 0;
}

int CmdTune(const Flags& flags) {
  if (!flags.Has("db")) return Usage();
  auto db = LoadDatabase(flags.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto result = TuneAlpha(*db, QreOptions());
  if (!result.ok()) return Fail(result.status());
  TablePrinter table("alpha calibration", {"alpha", "total time"});
  for (size_t i = 0; i < result->alphas.size(); ++i) {
    table.AddRow({StringFormat("%.2f", result->alphas[i]),
                  FormatDuration(result->total_seconds[i])});
  }
  table.Print();
  std::printf("best alpha: %.2f\n", result->best_alpha);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (cmd == "gen-tpch") return CmdGenTpch(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "demo-rout") return CmdDemoRout(flags);
  if (cmd == "reverse") return CmdReverse(flags);
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "tune") return CmdTune(flags);
  return Usage();
}
