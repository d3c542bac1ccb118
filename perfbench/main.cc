// The elephant engine's end-to-end benchmark. One process runs one workload:
// it builds the paper's database from an empty engine several times (the
// median is the set-up time), reads the base tables once into its own
// oracle, then runs whole rounds of statements for --seconds, checking every
// result against the oracle and against the other strategies. The last line
// of standard output is one JSON object; --trace 1 swaps the end-to-end
// metrics for per-layer ones and writes the spans to
// .bench_out/trace-<workload>.json.
//
//   perfbench --workload warm-mix --seed 3 --seconds 10 --trace 0
//
// Workloads call only the engine's public API.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "cstore/colopt.h"
#include "cstore/ctable_builder.h"
#include "cstore/rewriter.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "mv/view.h"
#include "oracle.h"
#include "parser/parser.h"
#include "planner/binder.h"
#include "planner/planner.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace elephant;  // NOLINT: benchmark-local brevity

/// Each set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 3;
/// Rows kept by the ORDER BY ... LIMIT variants.
constexpr int kTopK = 10;
/// Selectivity slices a round's random instances are spread over (see
/// DrawInstance); every round visits each slice once.
constexpr int kStrata = 4;
/// Orders appended per append-read round (each brings 1-7 lineitems).
constexpr int kAppendOrders = 25;

struct WorkloadSpec {
  const char* name;
  double scale_factor;
  bool wal;
  bool cold_cache;
  /// Traced runs also time the round's single-table Row statements serially
  /// and under PARALLEL kParallelWorkers, off the clock (the sched layer).
  bool sched_probe;
  bool warm_up;  ///< one unmeasured round before timing starts
};

constexpr int kParallelWorkers = 4;

// append-read runs at a smaller scale: each of its rounds re-materializes
// every derived table its reads touch, which costs about as much as the
// initial build of those tables.
constexpr WorkloadSpec kWorkloads[] = {
    {"paper-cold", 0.005, false, true, false, false},
    {"warm-mix", 0.005, false, false, true, true},
    {"append-read", 0.002, true, false, false, false},
};

enum Strat { kRow = 0, kMv = 1, kCol = 2, kNumStrat = 3 };
const char* const kStratSuffix[kNumStrat] = {"row", "mv", "col"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<uint64_t> tpch_seed;
  std::optional<uint64_t> query_seed;
  bool corrupt_one_row = false;
};

/// SplitMix64: the benchmark's own generator, so inputs do not depend on
/// the engine's RNG.
class Rand {
 public:
  explicit Rand(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Moves the calling thread from CPU to CPU of the ones the process may use.
/// On a shared host the CPUs run at different speeds (a fixed loop ran 50 %
/// slower on one of four), and where the scheduler happens to place a
/// single-threaded run decided its result. Visiting every CPU in turn gives
/// each run the same mix.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  /// Pins the calling thread to the next CPU.
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);  // best effort
  }
  /// Lets the calling thread run anywhere again (threads it starts inherit
  /// its mask).
  void Release() { (void)sched_setaffinity(0, sizeof(all_), &all_); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string DecimalLiteral(int64_t scaled) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%lld.%02lld", scaled < 0 ? "-" : "",
                static_cast<long long>(std::llabs(scaled) / 100),
                static_cast<long long>(std::llabs(scaled) % 100));
  return buf;
}

std::string DateLiteral(int32_t days) {
  return "DATE '" + date::ToString(days) + "'";
}

/// A database built from empty, with the paper's projections and views.
struct Built {
  std::unique_ptr<Database> db;
  std::unique_ptr<mv::ViewManager> views;
  std::map<std::string, ProjectionMeta> projections;
  double load_s = 0, ctable_s = 0, mv_s = 0, total_s = 0;
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-strategy execution counters summed over the measured rounds.
struct StratTotals {
  double cpu_s = 0, io_model_s = 0;
  uint64_t rows_scanned = 0, rows_out = 0, seeks = 0, seq = 0, rnd = 0;
};

/// The engine counters the per-layer metrics read from its stats getters.
struct EngineCounters {
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0, page_writes = 0,
           fsyncs = 0, wal_bytes = 0, wal_flushes = 0, lock_ns = 0;

  static EngineCounters Take(Database& db) {
    EngineCounters c;
    const BufferPoolStats pool = db.pool().stats();
    const IoStats io = db.disk().stats();
    c.pool_hits = pool.hits;
    c.pool_misses = pool.misses;
    c.evictions = pool.evictions;
    c.page_writes = io.page_writes;
    c.fsyncs = io.fsyncs;
    if (db.wal() != nullptr) {
      const wal::WalStats wal = db.wal()->stats();
      c.wal_bytes = wal.bytes_appended;
      c.wal_flushes = wal.flushes;
    }
    c.lock_ns = obs::WaitEventRegistry::Global().ClassNanos(obs::WaitClass::kLock);
    return c;
  }
  /// Adds what happened between `before` and `after`.
  void AddDelta(const EngineCounters& before, const EngineCounters& after) {
    pool_hits += after.pool_hits - before.pool_hits;
    pool_misses += after.pool_misses - before.pool_misses;
    evictions += after.evictions - before.evictions;
    page_writes += after.page_writes - before.page_writes;
    fsyncs += after.fsyncs - before.fsyncs;
    wal_bytes += after.wal_bytes - before.wal_bytes;
    wal_flushes += after.wal_flushes - before.wal_flushes;
    lock_ns += after.lock_ns - before.lock_ns;
  }
};

/// A query instance with everything the three strategies need.
struct Prepared {
  Instance inst;
  AnalyticQuery query;
  bool force_merge = false;  ///< Row(Col) join hint, see Prepare()
  Canonical expected;
};

class Runner {
 public:
  Runner(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        trace_(args.trace),
        tpch_seed_(args.tpch_seed.value_or(19920101 + args.seed)),
        query_seed_(args.query_seed.value_or(args.seed * 7919 + 17)),
        rng_(query_seed_) {}

  int Run();

 private:
  Result<Built> Setup(bool traced);
  Status Prepare();
  void CheckRowCounts();

  Prepared PrepareInstance(const Instance& inst);
  std::string RowSql(const Prepared& p) const;

  /// Runs one statement, checks it and accumulates its numbers under
  /// `strat` (pass -1 for statements outside the three strategies).
  /// `first` holds the first strategy's result of the same instance for the
  /// cross-strategy check. Returns false when the statement failed.
  bool Exec(const std::string& sql, int strat, const Canonical* expected,
            std::optional<Canonical>* first);
  /// Row, Row(MV) and Row(Col) for one instance (each optional).
  void RunStrategies(const Prepared& p, bool row, bool mv, bool col);

  void PaperColdRound();
  void WarmMixRound();
  void SchedProbe(const std::vector<Prepared>& work);
  void AppendReadRound();
  void RemoveAppended();
  void Round();

  Instance DrawInstance(QueryKind kind, int stratum, int strata);
  void Fail(const std::string& what);

  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer() const;
  void WriteTraceFile(const std::vector<Metric>& e2e,
                      const std::vector<Metric>& layers) const;

  const Args args_;
  const WorkloadSpec spec_;
  Trace trace_;
  const uint64_t tpch_seed_;
  const uint64_t query_seed_;
  Rand rng_;
  CpuRotation cpus_;
  Built built_;
  Oracle oracle_;
  PlanHints hints_;

  // Outcome counts.
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  bool corrupted_ = false;
  int reported_ = 0;
  int64_t next_stmt_ = 0;

  // Set-up numbers.
  std::vector<double> setup_s_, load_s_, ctable_s_, mv_s_;
  double stored_mb_ = 0, analyze_s_ = 0;
  uint64_t ctable_pages_ = 0;

  // Measurement state.
  bool measuring_ = false;
  /// Benchmark work left out of run time: result checking, and the serial
  /// and PARALLEL re-runs of a traced warm-mix round.
  double excluded_s_ = 0;
  double run_s_ = 0;
  uint64_t rounds_ = 0, stmts_ = 0;
  std::vector<double> round_rate_;  ///< statements per second, per round
  std::vector<double> stmt_wall_;
  double cur_wall_[kNumStrat] = {}, cur_paper_[kNumStrat] = {};
  std::vector<double> round_wall_[kNumStrat], round_paper_[kNumStrat];
  StratTotals totals_[kNumStrat];
  uint64_t sort_rows_ = 0, readahead_hits_ = 0;
  double gather_wait_s_ = 0;
  uint64_t lwlock_sleeps_ = 0, lwlock_ns_ = 0;
  std::vector<double> overhead_us_;
  double rebuild_s_ = 0;
  double last_wall_ = 0;  ///< Execute wall time of the latest statement
  double last_gather_s_ = 0;  ///< its Scheduler:Gather wait
  double serial_wall_ = 0, parallel_wall_ = 0;
  // append-read.
  int32_t first_append_key_ = 0;  ///< above every base order key
  int32_t next_orderkey_ = 0;
  uint64_t appended_rows_ = 0;
  double append_wall_ = 0;
  std::vector<double> insert_ms_, commit_ms_;
  /// Engine counters summed over the measured rounds.
  EngineCounters counted_;
  // paper-cold: the fixed sweep and its per-point strategy times.
  std::vector<Prepared> sweep_;
  std::vector<std::string> sweep_labels_;
  std::vector<double> colopt_s_;
  std::vector<std::vector<double>> point_paper_[kNumStrat];
};

Result<Built> Runner::Setup(bool traced) {
  Built b;
  DatabaseOptions options;
  options.wal_enabled = spec_.wal;
  options.worker_threads = 4;
  b.db = std::make_unique<Database>(options);
  b.views = std::make_unique<mv::ViewManager>(b.db.get());
  Trace off(false);
  Trace* trace = traced ? &trace_ : &off;
  ScopedSpan setup_span(trace, "bench.setup");
  const double t0 = Now();
  {
    ScopedSpan span(trace, "tpch.load");
    TpchConfig config;
    config.scale_factor = spec_.scale_factor;
    config.seed = tpch_seed_;
    ELE_RETURN_NOT_OK(TpchGenerator(config).LoadInto(b.db.get()));
  }
  const double t1 = Now();
  cstore::CTableBuilder builder(b.db.get());
  for (const ProjectionDef& def : paper::Projections()) {
    ScopedSpan span(trace, "cstore.build");
    ELE_ASSIGN_OR_RETURN(ProjectionMeta meta, builder.Build(def));
    b.projections.emplace(def.name, std::move(meta));
  }
  const double t2 = Now();
  for (const mv::ViewDef& def : paper::Views()) {
    ScopedSpan span(trace, "mv.create");
    ELE_RETURN_NOT_OK(b.views->CreateView(def));
  }
  const double t3 = Now();
  b.load_s = t1 - t0;
  b.ctable_s = t2 - t1;
  b.mv_s = t3 - t2;
  b.total_s = t3 - t0;
  return b;
}

void Runner::Fail(const std::string& what) {
  // Every failed operation makes the run incorrect: a statement that errors
  // out adds nothing to the timed sums, so a run with failures has no
  // comparable figures.
  failed_++;
  correct_ = false;
  if (reported_++ < 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Runner::CheckRowCounts() {
  // The generator documents dbgen's scaling: orders = 1.5M x SF,
  // customer = 150k x SF, supplier = 10k x SF.
  const double sf = spec_.scale_factor;
  const struct {
    const char* table;
    size_t got;
    double base;
  } checks[] = {{"orders", oracle_.num_orders(), 1.5e6},
                {"customer", oracle_.num_customers(), 1.5e5},
                {"supplier", oracle_.num_suppliers(), 1e4}};
  for (const auto& c : checks) {
    attempted_++;
    const auto want = static_cast<size_t>(std::llround(c.base * sf));
    if (c.got != want) {
      Fail(std::string("row count of ") + c.table + ": " +
           std::to_string(c.got) + ", scaling says " + std::to_string(want));
    }
  }
}

Prepared Runner::PrepareInstance(const Instance& inst) {
  Prepared p;
  p.inst = inst;
  if (inst.kind != QueryKind::kTpchQ1) {
    p.query = paper::QueryByName(QueryName(inst.kind), Value::Date(inst.d));
    // The paper tuned Row(Col)'s join hint per query (§3 "Query hints"),
    // as PaperBench::RunCol automates it: an unselective filter over a
    // c-table chain that range collapse cannot shorten runs as merge joins.
    const ProjectionMeta& proj =
        built_.projections.at(paper::ProjectionFor(QueryName(inst.kind)));
    const bool collapse = cstore::Rewriter(proj).RangeCollapseApplies(p.query);
    p.force_merge = !p.query.filters.empty() && !collapse &&
                    p.query.ReferencedColumns().size() >= 2 &&
                    oracle_.Selectivity(inst) >= 0.4;
  }
  const double t0 = Now();
  p.expected = oracle_.Expected(inst);
  excluded_s_ += Now() - t0;
  return p;
}

std::string Runner::RowSql(const Prepared& p) const {
  if (p.inst.kind == QueryKind::kTpchQ1) {
    return "SELECT l_returnflag, l_linestatus, COUNT(*) AS cnt, "
           "SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, "
           "SUM(l_extendedprice * l_discount) AS sum_disc, "
           "SUM(l_receiptdate - l_shipdate) AS sum_days, "
           "MIN(l_shipdate) AS first_ship, MAX(l_tax) AS max_tax "
           "FROM lineitem WHERE l_shipdate <= " +
           DateLiteral(p.inst.d) + " GROUP BY l_returnflag, l_linestatus";
  }
  std::string sql = p.query.ToRowSql();
  if (p.inst.top_k > 0) {
    // Hash join, sort and LIMIT: the operators the paper's plans skip.
    if (p.query.tables.size() > 1) sql = "/*+ HASH_JOIN */ " + sql;
    sql += " ORDER BY " + p.query.aggs.back().alias + " DESC";
    for (const std::string& g : p.query.group_cols) sql += ", " + g;
    sql += " LIMIT " + std::to_string(p.inst.top_k);
  }
  return sql;
}

bool Runner::Exec(const std::string& sql, int strat, const Canonical* expected,
                  std::optional<Canonical>* first) {
  const int64_t stmt = next_stmt_++;
  attempted_++;
  const int stmt_span = trace_.Begin("bench.statement", stmt);
  if (trace_.enabled() && expected != nullptr) {
    // The statement's layers, timed one by one through the public API
    // (Execute then repeats them internally).
    std::unique_ptr<SelectStmt> parsed;
    {
      const int s = trace_.Begin("parser.parse");
      auto r = ParseSelect(sql);
      trace_.End(s);
      if (r.ok()) parsed = std::move(r).value();
    }
    if (parsed != nullptr && spec_.wal) {
      // Derived tables a write left stale are rebuilt before the read, as
      // Execute would; doing it here attributes the time to the catalog.
      std::vector<std::string> names;
      CollectTableNames(*parsed, &names);
      for (const std::string& name : names) {
        if (!built_.db->catalog().IsStale(name)) continue;
        const int s = trace_.Begin("catalog.rebuild");
        const Status st = built_.db->catalog().RebuildIfStale(name);
        trace_.End(s);
        if (measuring_) rebuild_s_ += trace_.Seconds(s);
        if (!st.ok()) Fail("rebuild " + name + ": " + st.ToString());
      }
    }
    if (parsed != nullptr) {
      ExecContext ctx(&built_.db->pool());
      ctx.set_batch_enabled(built_.db->options().batch_execution);
      std::unique_ptr<BoundQuery> bound;
      {
        const int s = trace_.Begin("planner.bind");
        auto r = Binder(&built_.db->catalog()).Bind(*parsed);
        trace_.End(s);
        if (r.ok()) bound = std::move(r).value();
      }
      if (bound != nullptr) {
        bound->hints = bound->hints.Merge(hints_);
        if (bound->hints.parallel_workers >= 2) {
          ctx.set_scheduler(built_.db->workers());
        }
        const int s = trace_.Begin("planner.plan");
        // A plan error surfaces again, and is counted, in Execute below.
        auto r = Planner(&ctx).Plan(std::move(bound));
        trace_.End(s);
      }
    }
  }
  const int exec_span = trace_.Begin("engine.execute");
  const double t0 = Now();
  Result<QueryResult> r = built_.db->Execute(sql, hints_);
  const double wall = Now() - t0;
  last_wall_ = wall;
  if (r.ok()) {
    last_gather_s_ =
        static_cast<double>(r.value().wait_profile.nanos[static_cast<int>(
            obs::WaitEventId::kSchedulerGather)]) /
        1e9;
  }
  trace_.End(exec_span);
  trace_.End(stmt_span);
  if (!r.ok()) {
    Fail(sql + ": " + r.status().ToString());
    return false;
  }
  const QueryResult& res = r.value();
  if (measuring_) {
    stmts_++;
    stmt_wall_.push_back(wall);
    sort_rows_ += res.counters.sort_rows;
    readahead_hits_ += res.io.readahead.prefetch_hits;
    if (expected != nullptr && res.trace != nullptr) {
      // The engine's own phase times: the separately timed calls above run
      // with different cache state and would bias the residual.
      const obs::QueryTrace& phases = *res.trace;
      overhead_us_.push_back((wall - phases.SecondsFor("parse") -
                              phases.SecondsFor("bind") -
                              phases.SecondsFor("plan") - res.cpu_seconds) *
                             1e6);
    }
    if (strat >= 0) {
      cur_wall_[strat] += wall;
      cur_paper_[strat] += res.TotalSeconds();
      StratTotals& t = totals_[strat];
      t.cpu_s += res.cpu_seconds;
      t.io_model_s += res.io_seconds;
      t.rows_scanned += res.counters.rows_scanned;
      t.rows_out += res.rows.size();
      t.seeks += res.counters.index_seeks;
      t.seq += res.io.sequential_reads;
      t.rnd += res.io.random_reads;
    }
  }
  if (expected != nullptr) {
    const int check_span = trace_.Begin("bench.check", stmt);
    const double c0 = Now();
    Canonical got = Canonicalize(res);
    if (args_.corrupt_one_row && !corrupted_ && !got.empty()) {
      // Deliberately wrong comparison input (the engine's result is left
      // alone): proves the oracle can fail.
      got.front() += "corrupted";
      corrupted_ = true;
    }
    bool ok = true;
    if (got != *expected) {
      ok = false;
      Fail("result differs from the oracle (" + std::to_string(got.size()) +
           " rows, expected " + std::to_string(expected->size()) + "): " + sql);
    } else if (first != nullptr && first->has_value() && **first != got) {
      ok = false;
      Fail("strategies disagree: " + sql);
    }
    if (ok && first != nullptr && !first->has_value()) *first = got;
    excluded_s_ += Now() - c0;
    trace_.End(check_span);
    return ok;
  }
  return true;
}

void Runner::RunStrategies(const Prepared& p, bool row, bool mv, bool col) {
  std::optional<Canonical> first;
  if (row) Exec(RowSql(p), kRow, &p.expected, &first);
  if (mv) {
    const int s = trace_.Begin("mv.match");
    Result<std::string> sql = built_.views->TryRewrite(p.query);
    trace_.End(s);
    if (!sql.ok()) {
      attempted_++;
      Fail(std::string("no view answers ") + QueryName(p.inst.kind));
    } else {
      Exec(sql.value(), kMv, &p.expected, &first);
    }
  }
  if (col) {
    const ProjectionMeta& proj =
        built_.projections.at(paper::ProjectionFor(QueryName(p.inst.kind)));
    cstore::RewriteOptions options;
    options.force_merge_join = p.force_merge;
    const int s = trace_.Begin("cstore.rewrite");
    Result<std::string> sql = cstore::Rewriter(proj).Rewrite(p.query, options);
    trace_.End(s);
    if (!sql.ok()) {
      attempted_++;
      Fail(std::string("rewrite of ") + QueryName(p.inst.kind) + ": " +
           sql.status().ToString());
    } else {
      Exec(sql.value(), kCol, &p.expected, &first);
    }
  }
}

Instance Runner::DrawInstance(QueryKind kind, int stratum, int strata) {
  // The filter's selectivity is drawn uniformly from one of `strata` equal
  // slices of [0, 1), so a round that visits every slice does about the same
  // work whatever the seed; D is the date giving that selectivity.
  const double u = (stratum + rng_.Unit()) / strata;
  Instance inst;
  inst.kind = kind;
  switch (kind) {
    case QueryKind::kQ1:
    case QueryKind::kQ2:
    case QueryKind::kQ3:
      inst.d = oracle_.ShipdateForSelectivity(u);
      break;
    case QueryKind::kTpchQ1:  // l_shipdate <= D
      inst.d = oracle_.ShipdateForSelectivity(1 - u);
      break;
    case QueryKind::kQ4:
    case QueryKind::kQ5:
    case QueryKind::kQ6:
      inst.d = oracle_.OrderdateForSelectivity(u);
      break;
    case QueryKind::kQ7:
      break;
  }
  return inst;
}

constexpr QueryKind kPaperQueries[] = {QueryKind::kQ1, QueryKind::kQ2,
                                       QueryKind::kQ3, QueryKind::kQ4,
                                       QueryKind::kQ5, QueryKind::kQ6,
                                       QueryKind::kQ7};

void Runner::PaperColdRound() {
  for (size_t i = 0; i < sweep_.size(); i++) {
    double before[kNumStrat];
    std::copy(cur_paper_, cur_paper_ + kNumStrat, before);
    RunStrategies(sweep_[i], true, true, true);
    if (measuring_) {
      for (int s = 0; s < kNumStrat; s++) {
        point_paper_[s][i].push_back(cur_paper_[s] - before[s]);
      }
    }
  }
}

void Runner::WarmMixRound() {
  std::vector<Prepared> single_table;  // Row Q1-Q3 and the aggregate
  for (int stratum = 0; stratum < kStrata; stratum++) {
    for (QueryKind kind : kPaperQueries) {
      Instance inst = DrawInstance(kind, stratum, kStrata);
      Prepared p = PrepareInstance(inst);
      RunStrategies(p, true, true, true);
      inst.top_k = kTopK;
      RunStrategies(PrepareInstance(inst), true, false, false);
      if (kind == QueryKind::kQ1 || kind == QueryKind::kQ2 ||
          kind == QueryKind::kQ3) {
        single_table.push_back(std::move(p));
      }
    }
    Prepared agg =
        PrepareInstance(DrawInstance(QueryKind::kTpchQ1, stratum, kStrata));
    RunStrategies(agg, true, false, false);
    single_table.push_back(std::move(agg));
  }
  if (spec_.sched_probe && trace_.enabled() && measuring_) {
    SchedProbe(single_table);
  }
}

void Runner::SchedProbe(const std::vector<Prepared>& work) {
  // The same statements serially and under PARALLEL, back to back, off the
  // clock. The session thread runs unpinned so it does not share a CPU with
  // a worker.
  cpus_.Release();
  const double t0 = Now();
  const auto& waits = obs::WaitEventRegistry::Global();
  const uint64_t sleeps0 = waits.ClassCount(obs::WaitClass::kLWLock);
  const uint64_t ns0 = waits.ClassNanos(obs::WaitClass::kLWLock);
  measuring_ = false;
  for (const Prepared& p : work) {
    const std::string sql = RowSql(p);
    for (int parallel = 0; parallel < 2; parallel++) {
      hints_.parallel_workers = parallel ? kParallelWorkers : 0;
      const int s = trace_.Begin(parallel ? "sched.parallel" : "sched.serial");
      Exec(sql, -1, &p.expected, nullptr);
      trace_.End(s);
      (parallel ? parallel_wall_ : serial_wall_) += last_wall_;
      if (parallel) gather_wait_s_ += last_gather_s_;
    }
  }
  hints_.parallel_workers = 0;
  measuring_ = true;
  lwlock_sleeps_ += waits.ClassCount(obs::WaitClass::kLWLock) - sleeps0;
  lwlock_ns_ += waits.ClassNanos(obs::WaitClass::kLWLock) - ns0;
  excluded_s_ += Now() - t0;
}

void Runner::AppendReadRound() {
  // One transaction appends a seeded batch of orders and their lineitems.
  std::string orders_sql = "INSERT INTO orders VALUES ";
  std::string lines_sql = "INSERT INTO lineitem VALUES ";
  std::vector<std::pair<int32_t, OrderRow>> new_orders;
  std::vector<LineRow> new_lines;
  const int32_t min_date = TpchGenerator::MinOrderDate();
  const int32_t max_date = TpchGenerator::MaxOrderDate();
  const int32_t cutoff = date::FromYMD(1995, 6, 17);
  static const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                            "4-NOT SPECIFIED", "5-LOW"};
  for (int o = 0; o < kAppendOrders; o++) {
    const int32_t key = next_orderkey_++;
    OrderRow order;
    order.custkey = static_cast<int32_t>(
        rng_.Uniform(1, static_cast<int64_t>(oracle_.num_customers())));
    order.orderdate = static_cast<int32_t>(rng_.Uniform(min_date, max_date));
    const int lines = static_cast<int>(rng_.Uniform(1, 7));
    int64_t total = 0;
    for (int ln = 1; ln <= lines; ln++) {
      LineRow l;
      l.orderkey = key;
      l.suppkey = static_cast<int32_t>(
          rng_.Uniform(1, static_cast<int64_t>(oracle_.num_suppliers())));
      l.quantity = static_cast<int32_t>(rng_.Uniform(1, 50));
      l.extprice = rng_.Uniform(90000, 10500000) / 100 * l.quantity;
      l.discount = rng_.Uniform(0, 10);
      l.tax = rng_.Uniform(0, 8);
      l.shipdate = order.orderdate + static_cast<int32_t>(rng_.Uniform(1, 121));
      const int32_t commit =
          order.orderdate + static_cast<int32_t>(rng_.Uniform(30, 90));
      l.receiptdate = l.shipdate + static_cast<int32_t>(rng_.Uniform(1, 30));
      l.returnflag = l.receiptdate <= cutoff ? (rng_.Uniform(0, 1) ? 'A' : 'R') : 'N';
      l.linestatus = l.shipdate > cutoff ? 'O' : 'F';
      total += l.extprice;
      lines_sql += std::string(new_lines.empty() ? "" : ", ") + "(" +
                   std::to_string(key) + ", " + std::to_string(ln) + ", " +
                   std::to_string(l.suppkey) + ", " +
                   std::to_string(l.quantity) + ", " +
                   DecimalLiteral(l.extprice) + ", " +
                   DecimalLiteral(l.discount) + ", " + DecimalLiteral(l.tax) +
                   ", '" + l.returnflag + "', '" + l.linestatus + "', " +
                   DateLiteral(l.shipdate) + ", " + DateLiteral(commit) + ", " +
                   DateLiteral(l.receiptdate) + ", 'NONE', 'TRUCK')";
      new_lines.push_back(l);
    }
    orders_sql += std::string(o == 0 ? "" : ", ") + "(" + std::to_string(key) +
                  ", " + std::to_string(order.custkey) + ", '" +
                  (order.orderdate > cutoff ? "O" : "F") + "', " +
                  DecimalLiteral(total) + ", " + DateLiteral(order.orderdate) +
                  ", '" + kPriorities[rng_.Uniform(0, 4)] + "', 0)";
    new_orders.emplace_back(key, order);
  }
  const int txn_span = trace_.Begin("bench.append");
  const double t0 = Now();
  bool ok = Exec("BEGIN", -1, nullptr, nullptr);
  for (const std::string* sql : {&orders_sql, &lines_sql}) {
    const int s = trace_.Begin("txn.insert");
    const double i0 = Now();
    ok = ok && Exec(*sql, -1, nullptr, nullptr);
    if (measuring_) insert_ms_.push_back((Now() - i0) * 1e3);
    trace_.End(s);
  }
  const int s = trace_.Begin("txn.commit");
  const double c0 = Now();
  ok = ok && Exec("COMMIT", -1, nullptr, nullptr);
  if (measuring_) commit_ms_.push_back((Now() - c0) * 1e3);
  trace_.End(s);
  trace_.End(txn_span);
  if (measuring_) {
    append_wall_ += Now() - t0;
    appended_rows_ += new_orders.size() + new_lines.size();
  }
  if (ok) {
    for (const auto& [key, order] : new_orders) oracle_.AppendOrder(key, order);
    for (const LineRow& l : new_lines) oracle_.AppendLine(l);
  }
  for (int stratum = 0; stratum < kStrata; stratum++) {
    for (QueryKind kind : kPaperQueries) {
      RunStrategies(PrepareInstance(DrawInstance(kind, stratum, kStrata)),
                    true, true, true);
    }
  }
}

void Runner::RemoveAppended() {
  // Deletes the round's appended orders and lineitems again, off the clock,
  // so every round appends to and reads the same base data however many
  // rounds ran before it. The next round's reads check the deletes.
  const int s = trace_.Begin("bench.remove_appended");
  const double t0 = Now();
  const bool measuring = measuring_;
  measuring_ = false;
  const std::string from = std::to_string(first_append_key_);
  Exec("DELETE FROM lineitem WHERE l_orderkey >= " + from, -1, nullptr, nullptr);
  Exec("DELETE FROM orders WHERE o_orderkey >= " + from, -1, nullptr, nullptr);
  oracle_.RemoveOrdersFrom(first_append_key_);
  measuring_ = measuring;
  excluded_s_ += Now() - t0;
  trace_.End(s);
}

void Runner::Round() {
  cpus_.Next();
  const int s = trace_.Begin("bench.round");
  const double t0 = Now();
  const double excluded0 = excluded_s_;
  const uint64_t stmts0 = stmts_;
  const EngineCounters counters0 = EngineCounters::Take(*built_.db);
  std::fill(cur_wall_, cur_wall_ + kNumStrat, 0.0);
  std::fill(cur_paper_, cur_paper_ + kNumStrat, 0.0);
  const std::string name = spec_.name;
  if (name == "paper-cold") PaperColdRound();
  if (name == "warm-mix") WarmMixRound();
  if (name == "append-read") AppendReadRound();
  if (measuring_) {
    rounds_++;
    counted_.AddDelta(counters0, EngineCounters::Take(*built_.db));
    const double busy = Now() - t0 - (excluded_s_ - excluded0);
    round_rate_.push_back(static_cast<double>(stmts_ - stmts0) / busy);
    for (int i = 0; i < kNumStrat; i++) {
      round_wall_[i].push_back(cur_wall_[i]);
      round_paper_[i].push_back(cur_paper_[i]);
    }
  }
  trace_.End(s);
  if (name == "append-read") RemoveAppended();
}

Status Runner::Prepare() {
  // Build from empty kSetups times; keep the last database.
  for (int i = 0; i < kSetups; i++) {
    built_.views.reset();  // free the previous database first
    built_.db.reset();
    cpus_.Next();
    ELE_ASSIGN_OR_RETURN(built_, Setup(i == kSetups - 1));
    setup_s_.push_back(built_.total_s);
    load_s_.push_back(built_.load_s);
    ctable_s_.push_back(built_.ctable_s);
    mv_s_.push_back(built_.mv_s);
  }
  Database& db = *built_.db;
  stored_mb_ = static_cast<double>(db.disk().NumPages()) * kPageSize /
               (1024.0 * 1024.0);
  for (const auto& [name, proj] : built_.projections) {
    for (const CTableMeta& c : proj.ctables) {
      ELE_ASSIGN_OR_RETURN(Table * t, db.catalog().GetTable(c.table_name));
      ELE_ASSIGN_OR_RETURN(uint64_t pages, t->ClusteredPages());
      ctable_pages_ += pages;
    }
  }
  if (trace_.enabled()) {
    ScopedSpan span(&trace_, "catalog.analyze");
    const double t0 = Now();
    for (const std::string& name : db.catalog().TableNames()) {
      ELE_RETURN_NOT_OK(db.Analyze(name));
    }
    analyze_s_ = Now() - t0;
  }
  {
    ScopedSpan span(&trace_, "bench.oracle_load");
    ELE_RETURN_NOT_OK(oracle_.Load(&db));
  }
  first_append_key_ = oracle_.max_orderkey() + 1;
  next_orderkey_ = first_append_key_;
  CheckRowCounts();

  if (std::string(spec_.name) == "paper-cold") {
    // Figure 2's points: each range query at 1/10/50/100 % selectivity, the
    // equality queries at the median date, Q7 at its fixed flag.
    for (QueryKind kind : kPaperQueries) {
      std::vector<std::pair<double, std::string>> sels;
      if (kind == QueryKind::kQ2 || kind == QueryKind::kQ5) {
        sels = {{0.5, "eq"}};
      } else if (kind == QueryKind::kQ7) {
        sels = {{0, "eq"}};
      } else {
        sels = {{0.01, "1%"}, {0.1, "10%"}, {0.5, "50%"}, {1.0, "100%"}};
      }
      const bool on_ship = kind == QueryKind::kQ1 || kind == QueryKind::kQ2 ||
                           kind == QueryKind::kQ3;
      for (const auto& [fraction, label] : sels) {
        Instance inst;
        inst.kind = kind;
        if (kind != QueryKind::kQ7) {
          inst.d = on_ship ? oracle_.ShipdateForSelectivity(fraction)
                           : oracle_.OrderdateForSelectivity(fraction);
        }
        sweep_.push_back(PrepareInstance(inst));
        sweep_labels_.push_back(std::string(QueryName(kind)) + " " + label);
        const ProjectionMeta& proj =
            built_.projections.at(paper::ProjectionFor(QueryName(kind)));
        ELE_ASSIGN_OR_RETURN(
            cstore::ColOptEstimate est,
            cstore::ColOptModel(&db, proj).Estimate(sweep_.back().query));
        colopt_s_.push_back(est.seconds);
      }
    }
    for (int s = 0; s < kNumStrat; s++) point_paper_[s].resize(sweep_.size());
  }
  db.options().cold_cache = spec_.cold_cache;
  return Status::OK();
}

int Runner::Run() {
  Status st = Prepare();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Database& db = *built_.db;
  // PARALLEL workers must not inherit a one-CPU mask.
  cpus_.Release();
  if (spec_.sched_probe && trace_.enabled()) db.workers();
  if (spec_.warm_up) Round();

  measuring_ = true;
  excluded_s_ = 0;
  const double start = Now();
  do {
    Round();
    run_s_ = Now() - start - excluded_s_;
  } while (run_s_ < args_.seconds);
  measuring_ = false;

  if (args_.corrupt_one_row && !corrupted_) {
    Fail("--corrupt-one-row found no non-empty result to corrupt");
  }

  const std::vector<Metric> e2e = EndToEnd();
  const std::vector<Metric> layers = PerLayer();
  if (trace_.enabled()) WriteTraceFile(e2e, layers);

  std::printf("workload %s  sf %g  tpch_seed %llu  query_seed %llu  rounds %llu\n",
              spec_.name, spec_.scale_factor,
              static_cast<unsigned long long>(tpch_seed_),
              static_cast<unsigned long long>(query_seed_),
              static_cast<unsigned long long>(rounds_));
  if (!sweep_.empty()) {
    std::printf("  Figure 2 (median modeled s per point: Row, Row(MV), Row(Col), "
                "ColOpt)\n");
    for (size_t i = 0; i < sweep_.size(); i++) {
      std::printf("    %-9s %9.4f %9.4f %9.4f %9.4f\n", sweep_labels_[i].c_str(),
                  Median(point_paper_[kRow][i]), Median(point_paper_[kMv][i]),
                  Median(point_paper_[kCol][i]), colopt_s_[i]);
    }
  }
  const std::vector<Metric>& shown = trace_.enabled() ? layers : e2e;
  for (const Metric& m : shown) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct_ ? "true" : "false");
  std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", shown[i].name.c_str(), shown[i].value,
                  shown[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

std::vector<Metric> Runner::EndToEnd() const {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(setup_s_), "s"});
  m.push_back({"stored_mb", stored_mb_, "MiB"});
  m.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"});
  for (int s = 0; s < kNumStrat; s++) {
    m.push_back({std::string(kStratSuffix[s]) + "_paper_s", Median(round_paper_[s]), "s"});
  }
  for (int s = 0; s < kNumStrat; s++) {
    m.push_back({std::string(kStratSuffix[s]) + "_query_s", Median(round_wall_[s]), "s"});
  }
  m.push_back({"stmts_per_s", Median(round_rate_), "stmt/s"});
  m.push_back({"stmt_p50_ms", Quantile(stmt_wall_, 0.5) * 1e3, "ms"});
  // p95 needs 200 samples for ten to lie beyond it.
  m.push_back({"stmt_p95_ms",
               stmt_wall_.size() >= 200 ? Quantile(stmt_wall_, 0.95) * 1e3 : 0,
               "ms"});
  return m;
}

std::vector<Metric> Runner::PerLayer() const {
  const double rounds = static_cast<double>(std::max<uint64_t>(rounds_, 1));
  auto per_round = [rounds](double v) { return v / rounds; };
  auto median_us = [this](const char* span) {
    return Median(trace_.Durations(span)) * 1e6;
  };
  std::vector<Metric> m;
  m.push_back({"tpch.load_s", Median(load_s_), "s"});
  m.push_back({"catalog.analyze_s", analyze_s_, "s"});
  m.push_back({"catalog.rebuild_s", per_round(rebuild_s_), "s"});
  m.push_back({"cstore.build_s", Median(ctable_s_), "s"});
  m.push_back({"mv.create_s", Median(mv_s_), "s"});
  m.push_back({"cstore.pages", static_cast<double>(ctable_pages_), "pages"});
  m.push_back({"cstore.rewrite_us", median_us("cstore.rewrite"), "us"});
  m.push_back({"mv.match_us", median_us("mv.match"), "us"});
  m.push_back({"parser.parse_us", median_us("parser.parse"), "us"});
  m.push_back({"planner.bind_us", median_us("planner.bind"), "us"});
  m.push_back({"planner.plan_us", median_us("planner.plan"), "us"});
  m.push_back({"engine.overhead_us", Median(overhead_us_), "us"});
  for (int s = 0; s < kNumStrat; s++) {
    const std::string sfx = std::string(".") + kStratSuffix[s];
    const StratTotals& t = totals_[s];
    m.push_back({"exec.cpu_s" + sfx, per_round(t.cpu_s), "s"});
    m.push_back({"exec.rows_scanned" + sfx,
                 per_round(static_cast<double>(t.rows_scanned)), "rows"});
    m.push_back({"exec.scanned_per_row" + sfx,
                 t.rows_out > 0 ? static_cast<double>(t.rows_scanned) /
                                      static_cast<double>(t.rows_out)
                                : 0,
                 "ratio"});
    m.push_back({"index.seeks" + sfx, per_round(static_cast<double>(t.seeks)),
                 "count"});
    m.push_back({"storage.seq_reads" + sfx, per_round(static_cast<double>(t.seq)),
                 "pages"});
    m.push_back({"storage.rand_reads" + sfx,
                 per_round(static_cast<double>(t.rnd)), "pages"});
    m.push_back({"storage.io_model_s" + sfx, per_round(t.io_model_s), "s"});
  }
  m.push_back({"exec.sort_rows", per_round(static_cast<double>(sort_rows_)), "rows"});
  m.push_back({"storage.readahead_hits",
               per_round(static_cast<double>(readahead_hits_)), "pages"});
  const double hits = static_cast<double>(counted_.pool_hits);
  const double misses = static_cast<double>(counted_.pool_misses);
  m.push_back({"storage.pool_hits", per_round(hits), "count"});
  m.push_back({"storage.pool_misses", per_round(misses), "count"});
  m.push_back({"storage.pool_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
  m.push_back({"storage.evictions",
               per_round(static_cast<double>(counted_.evictions)), "count"});
  m.push_back({"storage.page_writes",
               per_round(static_cast<double>(counted_.page_writes)), "pages"});
  m.push_back({"sched.speedup",
               parallel_wall_ > 0 ? serial_wall_ / parallel_wall_ : 0, "x"});
  m.push_back({"sched.gather_wait_s", per_round(gather_wait_s_), "s"});
  m.push_back({"sched.lwlock_sleeps",
               per_round(static_cast<double>(lwlock_sleeps_)), "count"});
  m.push_back({"sched.lwlock_wait_s",
               per_round(static_cast<double>(lwlock_ns_) / 1e9), "s"});
  const double wal_bytes = static_cast<double>(counted_.wal_bytes);
  m.push_back({"wal.bytes_per_row",
               appended_rows_ > 0 ? wal_bytes / static_cast<double>(appended_rows_) : 0,
               "B/row"});
  m.push_back({"wal.flushes",
               per_round(static_cast<double>(counted_.wal_flushes)),
               "count"});
  m.push_back({"wal.fsyncs",
               per_round(static_cast<double>(counted_.fsyncs)),
               "count"});
  m.push_back({"txn.insert_ms", Median(insert_ms_), "ms"});
  m.push_back({"txn.commit_ms", Median(commit_ms_), "ms"});
  m.push_back({"txn.lock_wait_s",
               per_round(static_cast<double>(counted_.lock_ns) / 1e9),
               "s"});
  m.push_back({"append_rows_per_s",
               append_wall_ > 0 ? static_cast<double>(appended_rows_) / append_wall_ : 0,
               "rows/s"});
  return m;
}

void Runner::WriteTraceFile(const std::vector<Metric>& e2e,
                            const std::vector<Metric>& layers) const {
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string path = std::string(".bench_out/trace-") + spec_.name + ".json";
  std::ofstream out(path);
  auto metrics = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    char buf[256];
    for (size_t i = 0; i < ms.size(); i++) {
      std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
      s += buf;
    }
    return s + "\n}";
  };
  out << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << args_.seed
      << ", \"tpch_seed\": " << tpch_seed_ << ", \"query_seed\": " << query_seed_
      << ", \"scale_factor\": " << spec_.scale_factor << ", \"rounds\": " << rounds_
      << ",\n\"end_to_end\": " << metrics(e2e)
      << ",\n\"per_layer\": " << metrics(layers) << ",\n";
  if (!sweep_.empty()) {
    out << "\"figure2\": [";
    for (size_t i = 0; i < sweep_.size(); i++) {
      out << (i == 0 ? "" : ",") << "\n  {\"point\": \"" << sweep_labels_[i]
          << "\", \"row_s\": " << Median(point_paper_[kRow][i])
          << ", \"mv_s\": " << Median(point_paper_[kMv][i])
          << ", \"col_s\": " << Median(point_paper_[kCol][i])
          << ", \"colopt_s\": " << colopt_s_[i] << "}";
    }
    out << "\n],\n";
  }
  out << trace_.ToJson() << "\n}\n";
  if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--corrupt-one-row") {
      args->corrupt_one_row = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--tpch-seed") {
      args->tpch_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--query-seed") {
      args->query_seed = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed n] [--seconds s] "
                 "[--trace 0|1] [--tpch-seed n] [--query-seed n] "
                 "[--corrupt-one-row]\n");
    return 2;
  }
  for (const perfbench::WorkloadSpec& spec : perfbench::kWorkloads) {
    if (args.workload == spec.name) return perfbench::Runner(args, spec).Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
