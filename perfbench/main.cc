// iqs_perfbench: the IQS end-to-end benchmark. One invocation runs one
// workload for a fixed time and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Run it through
// run.py, which builds it first:
//
//   python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with closed-loop clients;
// --trace 1 replays the same operations on one client with spans around
// each layer's public function and prints the per-layer metrics.
// README.md records why each workload exists and what each metric means.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "core/system.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "sql/sql_parser.h"
#include "testbed/fleet_generator.h"
#include "testbed/ship_db.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using iqs::Status;

// Each untraced run sets the system up at least three times and reports
// the median, so one slow set-up does not move setup_s. Shorter set-ups
// (fleet-rules, fleet-churn) repeat up to three seconds' worth, since a
// median of three such short times still jitters.
constexpr size_t kMinSetupRuns = 3;
constexpr size_t kMaxSetupRuns = 31;
constexpr double kSetupBudgetSeconds = 3.0;
// query_p99_us is printed from at least this many samples, so ten lie
// beyond it.
constexpr size_t kMinQueries = 1000;
// Operations the traced run pushes through a wire (or write) probe on
// workloads whose own operations do not use that layer.
constexpr size_t kProbeOps = 32;
// The fleet database is the same in every run (the seed bench_scaling
// uses), so runs differ only in their operations: at Nc = 1 the number
// of induced rules, and with it the cost of inference, depends on the
// generated rows.
constexpr uint64_t kFleetDataSeed = 42;
constexpr size_t kSpellingProbeOps = 32;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "iqs_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(iqs::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}
void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  return "\"" + iqs::net::JsonEscapeString(s) + "\"";
}

// ---- spans -------------------------------------------------------------

// In-memory span log of the traced run: name, start, end and parent per
// span, all on the one replay thread. Written out at exit.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t op;  // operation id; -1 for set-up and probes
    int parent;  // index into spans(), -1 at the root
    Clock::time_point start, end;
    double micros() const { return Micros(start, end); }
  };

  int Begin(const char* name, int64_t op) {
    spans_.push_back(Span{name, op, open_.empty() ? -1 : open_.back(),
                          Clock::now(), {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[id].end = Clock::now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time of spans [first, end): duration minus the time covered by
  // direct children. Children of those spans lie in the same range.
  std::vector<double> SelfMicros(size_t first = 0) const {
    std::vector<double> self(spans_.size() - first);
    for (size_t i = first; i < spans_.size(); ++i) {
      self[i - first] += spans_[i].micros();
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(first)) {
        self[parent - first] -= spans_[i].micros();
      }
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << Num(Micros(origin, s.start))
          << ",\"end_us\":" << Num(Micros(origin, s.end)) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int64_t op = -1) : log_(log) {
    if (log_ != nullptr) id_ = log_->Begin(name, op);
  }
  ~Scoped() {
    if (log_ != nullptr) log_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

// ---- the system under test ----------------------------------------------

// Members are destroyed in reverse order, so the server stops before
// the system it serves goes away. The oracle's process fills `tables`
// with rows and has no system; the measured process keeps only their
// schemas and row counts.
struct Fixture {
  const WorkloadConfig* config = nullptr;
  std::unique_ptr<iqs::IqsSystem> system;
  std::unique_ptr<iqs::net::IqsServer> server;
  std::map<std::string, Table> tables;  // by name
  size_t hulls = 0;                     // fleet ships generated

  const Table* table(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : &it->second;
  }
  bool oracle() const { return system == nullptr; }
};

std::vector<std::string> OracleTables(const WorkloadConfig& config) {
  if (config.ships_per_type == 0) return {"SUBMARINE", "CLASS", "INSTALL"};
  return {"BATTLESHIP", "SHIPTYPE"};
}

size_t Hulls(const WorkloadConfig& config) {
  return config.ships_per_type * iqs::Table1Specs().size();
}

iqs::Result<uint16_t> StartServer(Fixture* fx) {
  iqs::net::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.max_sessions = 8;
  fx->server = std::make_unique<iqs::net::IqsServer>(fx->system.get(), config);
  IQS_RETURN_IF_ERROR(fx->server->Start());
  return fx->server->port();
}

std::string QueryPayload(const std::string& sql) {
  return "{\"verb\":\"query\",\"sql\":" + JsonString(sql) + "}";
}

void Induce(Fixture& fx) {
  iqs::InductionConfig induction;
  induction.min_support = fx.config->min_support;
  Must(fx.system->Induce(induction), "induce");
}

// Builds the workload's system from nothing: load rows through
// Relation::Insert, IqsSystem::Create, build the columnar snapshots (which
// Induce would otherwise build), Induce, start the server (ship-wire), and
// serve one warm-up query. Returns the seconds that took.
double SetUp(const WorkloadConfig& config, Fixture* fx, SpanLog* log) {
  fx->server.reset();
  fx->system.reset();
  fx->config = &config;
  fx->hulls = Hulls(config);
  Scoped setup_span(log, "setup");
  Clock::time_point t0 = Clock::now();
  if (config.ships_per_type == 0) {
    Scoped span(log, "relational.load");
    fx->system = Must(iqs::BuildShipSystem(), "ship testbed");
  } else {
    std::unique_ptr<iqs::Database> db;
    {
      Scoped span(log, "relational.load");
      db = Must(iqs::GenerateFleet(config.ships_per_type, kFleetDataSeed),
                "fleet");
    }
    auto catalog = Must(iqs::BuildFleetCatalog(), "fleet catalog");
    fx->system = Must(iqs::IqsSystem::Create(std::move(db), std::move(catalog)),
                      "create");
  }
  for (const std::string& name : OracleTables(config)) {
    Scoped span(log, "relational.snapshot");
    Must(fx->system->database().ColumnarSnapshot(name), "snapshot " + name);
  }
  {
    Scoped span(log, "induction.induce");
    Induce(*fx);
  }
  fx->system->processor().set_sqo_mode(config.sqo ? iqs::SqoMode::kOn
                                                  : iqs::SqoMode::kOff);
  if (config.wire) {
    Scoped span(log, "net.server_start");
    uint16_t port = Must(StartServer(fx), "server start");
    iqs::net::BlockingClient client;
    Must(client.Connect("127.0.0.1", port), "connect");
    std::string response =
        Must(client.Call(QueryPayload(iqs::Example1Sql())), "warm-up call");
    if (response.find("\"ok\":true") == std::string::npos) {
      Die("warm-up query failed: " + response);
    }
  } else {
    Scoped span(log, "setup.warmup");
    auto result = fx->system->Query(
        "SELECT Name FROM BATTLESHIP WHERE Name = 'Hull 100'");
    if (!result.ok() || result->extensional.size() != 1) {
      Die("warm-up query failed");
    }
    fx->system->Explain(*result);
  }
  return Seconds(t0, Clock::now());
}

// ---- operations and their expected answers --------------------------------

// One distinct (statement, visible rows) pair and what the oracle
// expects of it.
struct Statement {
  const QuerySpec* spec = nullptr;
  std::string sql;
  std::string payload;  // wire request (ship-wire)
  std::vector<size_t> visible;
  Expected expected;
  std::string explain;  // ship-wire: the checked in-process prose
};

struct PlannedOp {
  int cls = kPoint;
  int write_index = -1;
  size_t stmt = 0;  // index into Plan::statements
};

struct Plan {
  std::vector<std::vector<Op>> fleet_ops;  // owns the fleet specs
  std::vector<std::vector<PlannedOp>> planned;  // per client
  std::vector<Statement> statements;
  std::vector<std::vector<std::vector<iqs::Value>>> writes;  // per index
  // fleet-churn: BATTLESHIP with every append (rows only in the oracle's
  // process).
  Table battleship_with_writes;
};

std::vector<const Table*> TablesFor(const Fixture& fx, const Plan& plan,
                                    const QuerySpec& spec) {
  std::vector<const Table*> tables;
  for (const std::string& name : spec.tables) {
    if (!plan.writes.empty() && name == "BATTLESHIP") {
      tables.push_back(&plan.battleship_with_writes);
    } else {
      tables.push_back(fx.table(name));
    }
  }
  return tables;
}

// Generates every client's operation list and its distinct statements.
// In the oracle's process (`fx.tables` with rows), it also computes each
// statement's expected answer, on up to `threads` threads.
Plan MakePlan(const Fixture& fx, uint64_t seed, int seconds, int clients,
              int threads) {
  const WorkloadConfig& config = *fx.config;
  Plan plan;
  // Enough for the kMinQueries queries query_p99_us needs, also in a
  // one-second run.
  const size_t count =
      std::max(config.ops_per_client_second * seconds, 2 * kMinQueries);
  size_t base_rows = 0;
  if (config.ships_per_type > 0) {
    for (int c = 0; c < clients; ++c) {
      plan.fleet_ops.push_back(FleetOps(config, seed, c, count, fx.hulls));
    }
    if (config.write_every > 0) {
      plan.battleship_with_writes = *fx.table("BATTLESHIP");
      base_rows = plan.battleship_with_writes.row_count;
      int64_t next_hull = 100 + static_cast<int64_t>(fx.hulls);
      for (const Op& op : plan.fleet_ops[0]) {
        if (op.cls != kWrite) continue;
        plan.writes.push_back(WriteBatch(seed, op.write_index, next_hull));
        next_hull += kShipsPerWrite;
        plan.battleship_with_writes.row_count += kShipsPerWrite;
        if (!fx.oracle()) continue;
        for (const auto& row : plan.writes.back()) {
          plan.battleship_with_writes.rows.push_back(row);
        }
      }
    }
  }
  std::map<std::string, size_t> index;
  auto intern = [&](const QuerySpec& spec, size_t writes_before) {
    Statement st;
    st.spec = &spec;
    st.sql = RenderSql(spec);
    for (size_t i = 0; i < spec.tables.size(); ++i) {
      st.visible.push_back(spec.tables[i] == "BATTLESHIP" && !plan.writes.empty()
                               ? base_rows + writes_before * kShipsPerWrite
                               : fx.table(spec.tables[i])->row_count);
    }
    std::string key = st.sql;
    for (size_t v : st.visible) key += "|" + std::to_string(v);
    auto [it, fresh] = index.emplace(key, plan.statements.size());
    if (fresh) {
      if (config.wire) st.payload = QueryPayload(st.sql);
      plan.statements.push_back(std::move(st));
    }
    return it->second;
  };
  for (int c = 0; c < clients; ++c) {
    std::vector<PlannedOp> planned;
    if (config.ships_per_type == 0) {
      for (int hot : ShipOps(seed, c, count)) {
        const QuerySpec& spec = ShipHotSet()[hot];
        planned.push_back(PlannedOp{spec.cls, -1, intern(spec, 0)});
      }
    } else {
      size_t writes_before = 0;
      for (const Op& op : plan.fleet_ops[c]) {
        if (op.cls == kWrite) {
          ++writes_before;
          planned.push_back(PlannedOp{kWrite, op.write_index, 0});
        } else {
          planned.push_back(
              PlannedOp{op.cls, -1, intern(op.query, writes_before)});
        }
      }
    }
    plan.planned.push_back(std::move(planned));
  }
  if (!fx.oracle()) return plan;
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < std::max(1, threads); ++w) {
    workers.emplace_back([&] {
      for (size_t j = next++; j < plan.statements.size(); j = next++) {
        Statement& st = plan.statements[j];
        st.expected = Must(
            Evaluate(*st.spec, TablesFor(fx, plan, *st.spec), st.visible),
            "oracle");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return plan;
}

// ---- counting outcomes --------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t unsound = 0;
  uint64_t incorrect = 0;
  std::vector<std::string> notes;  // first few failures, for stderr

  void Count(const Verdict& v, const std::string& sql) {
    switch (v.outcome) {
      case Outcome::kOk: return;
      case Outcome::kError: ++errors; break;
      case Outcome::kUnsound: ++unsound; break;
      case Outcome::kIncorrect: ++incorrect; break;
    }
    if (notes.size() < 8) {
      notes.push_back(std::string(OutcomeName(v.outcome)) + ": " + sql +
                      " -- " + v.detail);
    }
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    errors += o.errors;
    unsound += o.unsound;
    incorrect += o.incorrect;
    for (const std::string& n : o.notes) {
      if (notes.size() < 8) notes.push_back(n);
    }
  }
  uint64_t failed() const { return errors + unsound; }
};

// Checks one wire response against the oracle and the in-process prose.
Verdict CheckWire(const iqs::Result<std::string>& response,
                  const Statement& st) {
  if (!response.ok()) return {Outcome::kError, response.status().ToString()};
  auto parsed = iqs::net::JsonValue::Parse(*response);
  if (!parsed.ok()) return {Outcome::kError, "unparseable response"};
  const iqs::net::JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    return {Outcome::kError, *response};
  }
  const iqs::net::JsonValue* table = parsed->Find("table");
  const iqs::net::JsonValue* explain = parsed->Find("explain");
  RowsDigest digest;
  if (table == nullptr || !table->is_string() ||
      !DigestTable(table->AsString(), st.spec->order_by, &digest) ||
      !(digest == st.expected.digest)) {
    return {Outcome::kIncorrect, "wire rows differ from the oracle"};
  }
  if (explain == nullptr || !explain->is_string() ||
      explain->AsString() != st.explain) {
    return {Outcome::kIncorrect, "wire explain differs from in-process"};
  }
  return {};
}

// A write: appends `rows` to `relation` through Database::GetMutable +
// Relation::Insert, rebuilds its columnar snapshot, and re-induces.
// Induce would build the snapshot itself; building it first lets the
// traced run time it apart.
void ApplyWrite(Fixture& fx, const std::string& relation,
                const std::vector<std::vector<iqs::Value>>& rows,
                SpanLog* log) {
  iqs::Relation* target =
      Must(fx.system->database().GetMutable(relation), "GetMutable");
  for (const auto& row : rows) {
    Scoped span(log, "relational.insert");
    Must(target->Insert(iqs::Tuple(row)), "insert");
  }
  {
    Scoped span(log, "relational.snapshot");
    Must(fx.system->database().ColumnarSnapshot(relation), "snapshot");
  }
  Scoped span(log, "induction.induce");
  Induce(fx);
}

// ---- the spelling probe ---------------------------------------------------

// Statements whose numeric literals are spelled as strings, as a client
// binding every parameter as a string sends them. Until ROADMAP item 1
// is fixed, many of these are unsound or fail. The timed workloads use
// typed literals only, so none of their operations fails.
std::vector<QuerySpec> ProbeSpecs(const Fixture& fx, uint64_t seed) {
  if (fx.config->ships_per_type == 0) {
    return {ShipUnsoundRepro(), ShipMixedBetween()};
  }
  std::vector<QuerySpec> specs;
  WorkloadConfig reads = *fx.config;
  reads.write_every = 0;
  for (const Op& op : FleetOps(reads, seed, /*client=*/1000, /*count=*/4000,
                               fx.hulls)) {
    if (!HasQuotedLiteral(op.query, seed)) continue;
    QuerySpec spec = op.query;
    spec.fixed_sql = RenderSql(op.query, seed);
    specs.push_back(std::move(spec));
    if (specs.size() == kSpellingProbeOps) break;
  }
  return specs;
}

std::vector<const Table*> ProbeTables(const Fixture& fx, const QuerySpec& spec,
                                      std::vector<size_t>* visible) {
  std::vector<const Table*> tables;
  for (const std::string& name : spec.tables) {
    tables.push_back(fx.table(name));
    if (visible != nullptr) visible->push_back(tables.back()->row_count);
  }
  return tables;
}

// Runs the probe statements with the caches bypassed, so their answers
// cannot reach the timed operations.
Tally SpellingProbe(const Fixture& fx, const std::vector<QuerySpec>& specs,
                    const std::vector<Expected>& expected) {
  Tally probe;
  iqs::QueryOptions options;
  options.use_cache = false;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto result = fx.system->Query(specs[i].fixed_sql, options);
    ++probe.attempted;
    probe.Count(Classify(result, specs[i], ProbeTables(fx, specs[i], nullptr),
                         expected[i]),
                specs[i].fixed_sql);
  }
  return probe;
}

// ---- the oracle's process ---------------------------------------------------

// The oracle runs in a child process, forked before the measured process
// starts any thread. After the first set-up the measured process streams
// it the tables (schema and rows, read through Database::Get); the child
// builds the same plan, computes every statement's expected answer and
// sends the answers back. The measured process then holds the system
// under test, the operation lists and the answers' digests and bounds,
// but never the oracle's copy of the data, so rss_peak_mb is the
// system's.
struct OracleAnswers {
  uint64_t plan_key = 0;
  std::vector<Expected> plan;   // one per Plan::statements entry
  std::vector<Expected> probe;  // one per ProbeSpecs entry
  double rss_peak_mb = 0;       // the oracle process's peak
  size_t bytes = 0;             // size of the answers as sent
};

// Hash of the plan's statements and the rows each sees, so the measured
// process can tell that the oracle planned the same statements.
uint64_t PlanKey(const Plan& plan) {
  uint64_t key = plan.statements.size();
  for (const Statement& st : plan.statements) {
    for (char ch : st.sql) key = Mix(key ^ static_cast<unsigned char>(ch));
    for (size_t v : st.visible) key = Mix(key ^ v);
  }
  return key;
}

bool WriteAll(int fd, const std::string& text) {
  for (size_t sent = 0; sent < text.size();) {
    const ssize_t n = write(fd, text.data() + sent, text.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, std::string* text) {
  char buf[1 << 16];
  for (ssize_t n; (n = read(fd, buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    text->append(buf, static_cast<size_t>(n));
  }
  return true;
}

// The child's side: reads the tables, returns everything it sends back.
std::string OracleText(const WorkloadConfig& config, uint64_t seed,
                       int seconds, int clients, const std::string& tables) {
  Fixture oracle;
  oracle.config = &config;
  oracle.hulls = Hulls(config);
  Reader reader(tables);
  for (const std::string& name : OracleTables(config)) {
    Table& table = oracle.tables[name];
    table.name = name;
    table.columns.resize(reader.ReadCount(2));
    table.row_count = reader.ReadNum();
    for (std::string& column : table.columns) column = reader.ReadText();
    for (size_t r = 0; r < table.row_count && reader.ok(); ++r) {
      std::vector<iqs::Value> row(table.columns.size());
      for (iqs::Value& v : row) v = reader.ReadValue();
      table.rows.push_back(std::move(row));
    }
  }
  if (!reader.ok()) Die("malformed tables from the measured process");
  const Plan plan = MakePlan(oracle, seed, seconds, clients,
                             std::thread::hardware_concurrency());
  std::vector<Expected> answers;
  for (const Statement& st : plan.statements) answers.push_back(st.expected);
  std::vector<Expected> probe;
  for (const QuerySpec& spec : ProbeSpecs(oracle, seed)) {
    std::vector<size_t> visible;
    const auto spec_tables = ProbeTables(oracle, spec, &visible);
    probe.push_back(Must(Evaluate(spec, spec_tables, visible), "probe oracle"));
  }
  std::string out;
  PutNum(&out, PlanKey(plan));
  PutAnswers(&out, answers);
  PutAnswers(&out, probe);
  return out;
}

class OracleProcess {
 public:
  // Forks the child, which waits for the tables. Call it before the
  // measured process starts any thread.
  OracleProcess(const WorkloadConfig& config, uint64_t seed, int seconds,
                int clients) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) Die("pipe");
    std::fflush(stdout);
    pid_ = fork();
    if (pid_ < 0) Die("fork");
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      std::string tables;
      if (!ReadAll(to_child[0], &tables)) _exit(3);
      const bool sent = WriteAll(
          from_child[1], OracleText(config, seed, seconds, clients, tables));
      _exit(sent ? 0 : 3);
    }
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
  }

  // Without Answers(), closing the pipe ends the child, which is reaped.
  ~OracleProcess() {
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }
  OracleProcess(const OracleProcess&) = delete;
  OracleProcess& operator=(const OracleProcess&) = delete;

  // Streams the tables of `db` to the child, then collects its answers.
  OracleAnswers Answers(const WorkloadConfig& config, const iqs::Database& db) {
    std::string chunk;
    for (const std::string& name : OracleTables(config)) {
      const iqs::Relation* rel = Must(db.Get(name), name);
      PutNum(&chunk, rel->schema().size());
      PutNum(&chunk, rel->size());
      for (size_t i = 0; i < rel->schema().size(); ++i) {
        PutText(&chunk, rel->schema().attribute(i).name);
      }
      for (const iqs::Tuple& t : rel->rows()) {
        for (size_t i = 0; i < t.size(); ++i) PutValue(&chunk, t.at(i));
        if (chunk.size() < (1 << 16)) continue;
        if (!WriteAll(to_child_, chunk)) Die("sending the oracle its tables");
        chunk.clear();
      }
    }
    if (!WriteAll(to_child_, chunk)) Die("sending the oracle its tables");
    close(to_child_);
    to_child_ = -1;
    std::string text;
    const bool read_ok = ReadAll(from_child_, &text);
    close(from_child_);
    from_child_ = -1;
    int status = 0;
    struct rusage usage {};
    const bool reaped = wait4(pid_, &status, 0, &usage) == pid_;
    pid_ = -1;
    if (!read_ok || !reaped || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      Die("the oracle's process failed");
    }
    OracleAnswers answers;
    Reader reader(text);
    answers.plan_key = reader.ReadNum();
    answers.plan = reader.ReadAnswers();
    answers.probe = reader.ReadAnswers();
    if (!reader.ok()) Die("malformed answers from the oracle");
    answers.rss_peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    answers.bytes = text.size();
    return answers;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// Builds the measured process's plan from the system's schemas and row
// counts, and attaches the oracle's answers to it.
Plan PlanWithAnswers(Fixture& fx, uint64_t seed, int seconds, int clients,
                     OracleAnswers& answers) {
  for (const std::string& name : OracleTables(*fx.config)) {
    fx.tables[name] = Must(
        CopyTable(fx.system->database(), name, /*with_rows=*/false), name);
  }
  Plan plan = MakePlan(fx, seed, seconds, clients, /*threads=*/0);
  if (PlanKey(plan) != answers.plan_key ||
      plan.statements.size() != answers.plan.size() ||
      ProbeSpecs(fx, seed).size() != answers.probe.size()) {
    Die("the oracle planned other statements");
  }
  for (size_t i = 0; i < plan.statements.size(); ++i) {
    plan.statements[i].expected = std::move(answers.plan[i]);
  }
  return plan;
}

// ---- the run record ------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

std::string GitSha() {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? sha : "unknown";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Heap bytes in use, over all malloc arenas.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

std::string RecordHead(const Args& args, const WorkloadConfig& config,
                       int clients, size_t listed) {
  const char* threads = std::getenv("IQS_THREADS");
  return "{\"record\":{\"git_sha\":" + JsonString(GitSha()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"iqs_threads\":" +
         JsonString(threads != nullptr ? threads : "unset") +
         ",\"workload\":" + JsonString(config.name) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + std::to_string(args.seconds) +
         ",\"trace\":" + std::to_string(args.trace) +
         ",\"clients\":" + std::to_string(clients) +
         ",\"ops_per_client_listed\":" + std::to_string(listed);
}

std::string JsonCounts(const Tally& t) {
  return "{\"attempted\":" + std::to_string(t.attempted) +
         ",\"errors\":" + std::to_string(t.errors) +
         ",\"unsound\":" + std::to_string(t.unsound) +
         ",\"incorrect\":" + std::to_string(t.incorrect) + "}";
}

void PrintResult(bool correct, const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed()) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(metrics[i].first) + ":{\"value\":" +
           Num(metrics[i].second.first) + ",\"unit\":" +
           JsonString(metrics[i].second.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void ReportNotes(const Tally& tally) {
  for (const std::string& note : tally.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
}

// ship-wire: runs each hot statement in process once, checks it against
// the oracle (rows and soundness) and keeps its prose, which every wire
// response must then carry byte for byte.
void CheckHotSet(const Fixture& fx, Plan& plan) {
  Tally hot;
  for (Statement& st : plan.statements) {
    auto result = fx.system->Query(st.sql);
    hot.Count(Classify(result, *st.spec, TablesFor(fx, plan, *st.spec),
                       st.expected),
              st.sql);
    if (result.ok()) st.explain = fx.system->Explain(*result);
  }
  if (hot.failed() + hot.incorrect > 0) {
    ReportNotes(hot);
    Die("a ship-wire hot statement fails in process");
  }
}

// ---- --trace 0: closed-loop clients ---------------------------------------

struct Sample {
  int cls;
  double micros;
};

int RunTimed(const Args& args, const WorkloadConfig& config) {
  OracleProcess oracle(config, args.seed, args.seconds, config.clients);
  Fixture fx;
  std::vector<double> setups;
  double setup_total = 0;
  OracleAnswers answers;
  // The heap the benchmark itself holds through the timed phase (the
  // oracle's answers, the operation lists and statements), as part of
  // rss_peak_mb.
  double bench_heap_mb = 0;
  while (setups.size() < kMinSetupRuns ||
         (setups.size() < kMaxSetupRuns && setup_total < kSetupBudgetSeconds)) {
    setups.push_back(SetUp(config, &fx, nullptr));
    setup_total += setups.back();
    if (setups.size() == 1) {
      bench_heap_mb -= HeapMb();
      answers = oracle.Answers(config, fx.system->database());
      bench_heap_mb += HeapMb();
    }
  }
  const Clock::time_point prep = Clock::now();
  bench_heap_mb -= HeapMb();
  Plan plan =
      PlanWithAnswers(fx, args.seed, args.seconds, config.clients, answers);
  bench_heap_mb += HeapMb();
  const Tally probe =
      SpellingProbe(fx, ProbeSpecs(fx, args.seed), answers.probe);
  if (config.wire) CheckHotSet(fx, plan);
  const double prep_s = Seconds(prep, Clock::now());
  const auto answers0 = fx.system->processor().cache().answers().counters();

  std::vector<std::vector<Sample>> samples(config.clients);
  std::vector<Tally> tallies(config.clients);
  std::vector<size_t> done(config.clients);
  std::vector<std::string> client_errors(config.clients);
  // The run lasts --seconds, and longer only on a machine too slow to
  // complete the 1000 queries query_p99_us needs in that time.
  std::atomic<size_t> queries_done{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  const Clock::time_point hard_deadline =
      start + std::chrono::seconds(4 * args.seconds);
  auto running = [&] {
    const Clock::time_point now = Clock::now();
    return now < deadline ||
           (queries_done.load() < kMinQueries && now < hard_deadline);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<PlannedOp>& ops = plan.planned[c];
      std::vector<Sample>& mine = samples[c];
      Tally& tally = tallies[c];
      iqs::net::BlockingClient client;
      if (config.wire) {
        Status s = client.Connect("127.0.0.1", fx.server->port());
        if (!s.ok()) {
          client_errors[c] = s.ToString();
          return;
        }
      }
      size_t i = 0;
      for (; running(); ++i) {
        // Read-only lists wrap; fleet-churn's writes make its list
        // non-repeatable, so it stops at the end.
        if (i == ops.size() && config.write_every > 0) break;
        const PlannedOp& op = ops[i % ops.size()];
        ++tally.attempted;
        if (op.cls == kWrite) {
          Clock::time_point t0 = Clock::now();
          ApplyWrite(fx, "BATTLESHIP", plan.writes[op.write_index], nullptr);
          mine.push_back(Sample{kWrite, Micros(t0, Clock::now())});
          continue;
        }
        const Statement& st = plan.statements[op.stmt];
        Verdict v;
        Clock::time_point t0 = Clock::now();
        Clock::time_point t1;
        if (config.wire) {
          auto response = client.Call(st.payload);
          t1 = Clock::now();
          v = CheckWire(response, st);
        } else {
          auto result = fx.system->Query(st.sql);
          if (result.ok()) fx.system->Explain(*result);
          t1 = Clock::now();
          v = Classify(result, *st.spec, TablesFor(fx, plan, *st.spec),
                       st.expected);
        }
        if (v.outcome != Outcome::kError) {
          mine.push_back(Sample{op.cls, Micros(t0, t1)});
        }
        tally.Count(v, st.sql);
        ++queries_done;
      }
      done[c] = i;
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Seconds(start, Clock::now());
  for (const std::string& e : client_errors) {
    if (!e.empty()) Die("client: " + e);
  }
  const auto answers1 = fx.system->processor().cache().answers().counters();

  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  std::vector<double> queries, writes;
  std::vector<std::vector<double>> by_class(kNumQueryClasses);
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      if (s.cls == kWrite) {
        writes.push_back(s.micros);
      } else {
        queries.push_back(s.micros);
        by_class[s.cls].push_back(s.micros);
      }
    }
  }
  const size_t completed = queries.size() + writes.size();
  const uint64_t hits = answers1.hits - answers0.hits;
  const uint64_t lookups = hits + answers1.misses - answers0.misses;

  std::string record = RecordHead(args, config, config.clients,
                                  plan.planned[0].size());
  record += ",\"ops_per_client_done\":[";
  for (int c = 0; c < config.clients; ++c) {
    record += (c > 0 ? "," : "") + std::to_string(done[c]);
  }
  record += "],\"setup_s_each\":[";
  for (size_t i = 0; i < setups.size(); ++i) {
    record += (i > 0 ? "," : "") + Num(setups[i]);
  }
  record += "],\"prep_s\":" + Num(prep_s);
  record += ",\"elapsed_s\":" + Num(elapsed);
  record += ",\"oracle\":{\"rss_peak_mb\":" + Num(answers.rss_peak_mb) +
            ",\"answer_bytes\":" + std::to_string(answers.bytes) + "}";
  record += ",\"bench_heap_mb\":" + Num(bench_heap_mb);
  record += ",\"failed_share\":" +
            Num(static_cast<double>(total.failed()) /
                std::max<uint64_t>(1, total.attempted));
  record += ",\"check.errors\":" + std::to_string(total.errors);
  record += ",\"check.unsound\":" + std::to_string(total.unsound);
  record += ",\"check.incorrect\":" + std::to_string(total.incorrect);
  record += ",\"spelling_probe\":" + JsonCounts(probe);
  record += ",\"answer_hit_share\":" +
            Num(lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups);
  record += ",\"samples\":{\"setup\":" + std::to_string(setups.size()) +
            ",\"query\":" + std::to_string(queries.size());
  for (int c = 0; c < kNumQueryClasses; ++c) {
    record += ",\"" + std::string(OpClassName(c)) +
              "\":" + std::to_string(by_class[c].size());
  }
  record += ",\"write\":" + std::to_string(writes.size()) + "}";
  if (!writes.empty()) {
    record += ",\"write_p50_us\":" + Num(Percentile(writes, 0.5));
    if (writes.size() >= 100) {
      record += ",\"write_p90_us\":" + Num(Percentile(writes, 0.9));
    }
  }
  record += "}}";
  std::printf("%s\n", record.c_str());
  ReportNotes(total);
  ReportNotes(probe);

  if (queries.size() < kMinQueries) {
    Die("only " + std::to_string(queries.size()) +
        " queries completed; query_p99_us needs " +
        std::to_string(kMinQueries));
  }
  Metrics metrics = {
      {"setup_s", {Percentile(setups, 0.5), "s"}},
      {"ops_per_s", {static_cast<double>(completed) / elapsed, "ops/s"}},
      {"query_p50_us", {Percentile(queries, 0.5), "us"}},
      {"query_p99_us", {Percentile(queries, 0.99), "us"}},
      {"rss_peak_mb", {PeakRssMb(), "MB"}},
  };
  for (int c = 0; c < kNumQueryClasses; ++c) {
    if (by_class[c].empty()) Die(std::string("no ") + OpClassName(c) + " samples");
    metrics.push_back({std::string(OpClassName(c)) + "_p50_us",
                       {Percentile(by_class[c], 0.5), "us"}});
  }
  PrintResult(total.incorrect == 0 && probe.incorrect == 0, total, metrics);
  return 0;
}

// ---- --trace 1: one client, spans around each layer -----------------------

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Per-layer figures gathered while replaying.
struct LayerTotals {
  double rows_loaded = 0, rows_returned = 0;
  double blocks_total = 0, blocks_pruned = 0;
  double execute_us = 0;
  double forward_facts = 0, answers = 0;
  uint64_t rewrites = 0, rewrites_changed = 0;
  uint64_t chain_mismatches = 0;
  // Layer shares: summed self time per layer over served time.
  std::map<std::string, double> layer_us;
  double served_us = 0;
  std::vector<double> overhead;  // wire round trip minus in-process
};

// Passes `sql` through each layer's public function in the order the
// processor calls them (parse, describe, rewrite, execute, infer,
// format), each under its own span, and checks the result reproduces
// what Query served.
void ReplayChain(const Fixture& fx, const Statement& st, int64_t id,
                 const iqs::Result<iqs::QueryResult>& served,
                 const iqs::SemanticOptimizer& optimizer, SpanLog* log,
                 LayerTotals* totals) {
  const iqs::SqlExecutor& executor = fx.system->processor().executor();
  const iqs::InferenceEngine& engine = fx.system->processor().engine();
  auto rules = fx.system->dictionary().induced_rules_version().rules;
  const size_t first = log->spans().size();
  iqs::QueryResult chain;
  bool failed = false;
  {
    Scoped chain_span(log, "chain", id);
    auto stmt = [&] {
      Scoped span(log, "sql.parse", id);
      return iqs::ParseSelect(st.sql);
    }();
    failed = !stmt.ok();
    if (!failed) {
      chain.statement = std::move(stmt).value();
      Scoped span(log, "core.describe", id);
      auto description = fx.system->processor().Describe(chain.statement);
      failed = !description.ok();
      if (!failed) chain.description = std::move(description).value();
    }
    std::optional<iqs::RewritePlan> rewrite;
    if (!failed) {
      // Timed on every workload; applied only where the workload runs
      // with sqo on, as the processor does.
      Scoped span(log, "core.rewrite", id);
      auto rewritten = optimizer.Rewrite(chain.statement, *rules,
                                         iqs::SqoMode::kOn,
                                         fx.system->database(), engine);
      ++totals->rewrites;
      if (rewritten.ok() && rewritten->changed()) {
        ++totals->rewrites_changed;
        if (fx.config->sqo) rewrite = std::move(rewritten).value();
      }
    }
    if (!failed) {
      Clock::time_point e0 = Clock::now();
      Scoped span(log, "sql.execute", id);
      auto rows = rewrite.has_value() && rewrite->skip_scan()
                      ? executor.ExecuteSchemaOnly(rewrite->statement)
                      : executor.Execute(rewrite.has_value()
                                             ? rewrite->statement
                                             : chain.statement);
      failed = !rows.ok();
      if (!failed) {
        chain.extensional = std::move(rows).value();
        const auto& stats = executor.last_stats();
        totals->rows_loaded += stats.base_rows_loaded;
        totals->rows_returned += chain.extensional.size();
        totals->blocks_total += stats.columnar_blocks_total;
        totals->blocks_pruned += stats.columnar_blocks_pruned;
        totals->execute_us += Micros(e0, Clock::now());
        if (rewrite.has_value()) chain.rewrites = rewrite->steps;
      }
    }
    if (!failed) {
      Scoped span(log, "inference.infer", id);
      auto answer = engine.InferWith(chain.description,
                                     iqs::InferenceMode::kCombined, *rules,
                                     &chain.degradations);
      failed = !answer.ok();
      if (!failed) chain.intensional = std::move(answer).value();
    }
    if (!failed) {
      Scoped span(log, "core.format", id);
      fx.system->formatter().Render(chain);
    }
  }
  bool same = served.ok() != failed;
  if (same && served.ok()) {
    same = DigestRelation(chain.extensional, st.spec->order_by) ==
               DigestRelation(served->extensional, st.spec->order_by) &&
           chain.intensional.ToString() == served->intensional.ToString();
    for (const auto& s : chain.intensional.statements()) {
      if (s.direction == iqs::AnswerDirection::kContains) {
        totals->forward_facts += s.facts.size();
      }
    }
    ++totals->answers;
  }
  if (!same && ++totals->chain_mismatches <= 4) {
    std::fprintf(stderr, "  chain differs from Query: %s\n", st.sql.c_str());
  }
  // Parse and inference count toward a layer's share only where the
  // served query missed the plan or answer cache.
  const std::vector<double> self = log->SelfMicros(first);
  for (size_t s = first; s < log->spans().size(); ++s) {
    const std::string name = log->spans()[s].name;
    if (name == "chain") continue;
    if (name == "sql.parse" && served.ok() && served->stats.plan_cache_hit) {
      continue;
    }
    if (name == "inference.infer" && served.ok() &&
        served->stats.answer_cache_hit) {
      continue;
    }
    if (name == "core.rewrite" && !fx.config->sqo) continue;
    totals->layer_us[name] += self[s - first];
  }
}

// Layers a workload's own operations do not reach still get measured:
// a few of its statements over a loopback server, and one write batch.
void ProbeMissingLayers(Fixture& fx, const Plan& plan, uint64_t seed,
                        SpanLog* log, LayerTotals* totals) {
  const WorkloadConfig& config = *fx.config;
  if (!config.wire) {
    Scoped probe(log, "probe.wire");
    uint16_t port = Must(StartServer(&fx), "probe server");
    iqs::net::BlockingClient client;
    Must(client.Connect("127.0.0.1", port), "probe connect");
    size_t n = 0;
    for (const PlannedOp& op : plan.planned[0]) {
      if (op.cls == kWrite) continue;
      if (n++ == kProbeOps) break;
      const Statement& st = plan.statements[op.stmt];
      (void)fx.system->Query(st.sql);  // both timings below see one cache state
      Clock::time_point t0 = Clock::now();
      {
        Scoped span(log, "net.call");
        Must(client.Call(QueryPayload(st.sql)), "probe call");
      }
      Clock::time_point t1 = Clock::now();
      {
        Scoped span(log, "net.in_process");
        auto r = fx.system->Query(st.sql);
        if (r.ok()) fx.system->Explain(*r);
      }
      totals->overhead.push_back(Micros(t0, t1) - Micros(t1, Clock::now()));
    }
  }
  if (config.write_every == 0) {
    Scoped probe(log, "probe.write");
    Scoped write(log, "write");
    if (config.ships_per_type == 0) {
      std::vector<std::vector<iqs::Value>> subs;
      for (int k = 0; k < 2; ++k) {
        subs.push_back({iqs::Value::String("SSNP" + std::to_string(k)),
                        iqs::Value::String("Probe " + std::to_string(k)),
                        iqs::Value::String("0204")});
      }
      ApplyWrite(fx, "SUBMARINE", subs, log);
    } else {
      ApplyWrite(fx, "BATTLESHIP",
                 WriteBatch(seed ^ 0x9E3779B9ULL, 0,
                            100 + static_cast<int64_t>(fx.hulls)),
                 log);
    }
  }
}

int RunTraced(const Args& args, const WorkloadConfig& config) {
  OracleProcess oracle(config, args.seed, args.seconds, /*clients=*/1);
  SpanLog log;
  Fixture fx;
  SetUp(config, &fx, &log);
  OracleAnswers answers = oracle.Answers(config, fx.system->database());
  const size_t rules_induced =
      fx.system->dictionary().induced_rules_version().rules->size();
  Plan plan = PlanWithAnswers(fx, args.seed, args.seconds, /*clients=*/1,
                              answers);
  iqs::net::BlockingClient client;
  if (config.wire) {
    CheckHotSet(fx, plan);
    Must(client.Connect("127.0.0.1", fx.server->port()), "connect");
  }
  const iqs::cache::QueryCache& cache = fx.system->processor().cache();
  const auto plans0 = cache.plans().counters();
  const auto answers0 = cache.answers().counters();
  iqs::SemanticOptimizer optimizer(&fx.system->dictionary());

  Tally tally;
  LayerTotals totals;
  // Served latency per class, defined as in --trace 0, so the two runs'
  // class medians can be set side by side.
  std::map<int, std::vector<double>> served_by_class;
  const std::vector<PlannedOp>& ops = plan.planned[0];
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  size_t i = 0;
  for (; Clock::now() < deadline; ++i) {
    if (i == ops.size() && config.write_every > 0) break;
    const PlannedOp& op = ops[i % ops.size()];
    const int64_t id = static_cast<int64_t>(i);
    ++tally.attempted;
    Scoped op_span(&log, "op", id);
    if (op.cls == kWrite) {
      Scoped write(&log, "write", id);
      ApplyWrite(fx, "BATTLESHIP", plan.writes[op.write_index], &log);
      continue;
    }
    const Statement& st = plan.statements[op.stmt];
    double call_us = 0;
    iqs::Result<std::string> response = std::string();
    if (config.wire) {
      Clock::time_point t0 = Clock::now();
      {
        Scoped span(&log, "net.call", id);
        response = client.Call(st.payload);
      }
      call_us = Micros(t0, Clock::now());
    }
    Clock::time_point p0 = Clock::now();
    iqs::Result<iqs::QueryResult> served = [&] {
      Scoped span(&log, "core.process", id);
      return fx.system->Query(st.sql);
    }();
    if (served.ok()) {
      Scoped span(&log, "core.explain", id);
      fx.system->Explain(*served);
    }
    const double process_us = Micros(p0, Clock::now());
    served_by_class[op.cls].push_back(config.wire ? call_us : process_us);
    if (config.wire) {
      totals.served_us += call_us;
      totals.overhead.push_back(call_us - process_us);
      tally.Count(CheckWire(response, st), st.sql);
    } else {
      totals.served_us += process_us;
      tally.Count(Classify(served, *st.spec, TablesFor(fx, plan, *st.spec),
                           st.expected),
                  st.sql);
    }
    ReplayChain(fx, st, id, served, optimizer, &log, &totals);
  }
  const size_t replayed = i;
  const auto plans1 = cache.plans().counters();
  const auto answers1 = cache.answers().counters();
  const double wire_us =
      config.wire ? std::accumulate(totals.overhead.begin(),
                                    totals.overhead.end(), 0.0)
                  : 0.0;
  ProbeMissingLayers(fx, plan, args.seed, &log, &totals);

  // Medians per span name. The write path (insert, snapshot, induce) is
  // read from spans inside a write only, not from set-up.
  std::map<std::string, std::vector<double>> self_by_name, dur_by_name,
      write_by_name;
  const std::vector<double> self = log.SelfMicros();
  double write_us = 0;
  for (size_t s = 0; s < log.spans().size(); ++s) {
    const SpanLog::Span& span = log.spans()[s];
    const std::string name = span.name;
    self_by_name[name].push_back(self[s]);
    dur_by_name[name].push_back(span.micros());
    if (name == "write") write_us += span.micros();
    if (span.parent >= 0 &&
        std::string(log.spans()[span.parent].name) == "write") {
      write_by_name[name].push_back(span.micros());
    }
  }
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double insert_us = sum(write_by_name["relational.insert"]);
  const double induce_us = sum(write_by_name["induction.induce"]);
  auto share = [](uint64_t hit, uint64_t miss) {
    return hit + miss == 0 ? 0.0 : static_cast<double>(hit) / (hit + miss);
  };
  const double served = std::max(totals.served_us, 1e-9);
  Metrics metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  add("sql.parse_us", Median(self_by_name["sql.parse"]), "us");
  add("core.describe_us", Median(self_by_name["core.describe"]), "us");
  add("core.rewrite_us", Median(self_by_name["core.rewrite"]), "us");
  add("core.rewrite_changed_share",
      share(totals.rewrites_changed, totals.rewrites - totals.rewrites_changed),
      "ratio");
  add("sql.execute_us", Median(self_by_name["sql.execute"]), "us");
  add("sql.ns_per_row_loaded",
      totals.rows_loaded == 0 ? 0.0
                              : totals.execute_us * 1000.0 / totals.rows_loaded,
      "ns/row");
  add("sql.rows_loaded_per_row_returned",
      totals.rows_loaded / std::max(totals.rows_returned, 1.0), "ratio");
  add("relational.blocks_pruned_share",
      totals.blocks_total == 0 ? 0.0
                               : totals.blocks_pruned / totals.blocks_total,
      "ratio");
  add("inference.infer_us", Median(self_by_name["inference.infer"]), "us");
  add("inference.rules", static_cast<double>(rules_induced), "count");
  add("inference.forward_facts_per_answer",
      totals.answers == 0 ? 0.0 : totals.forward_facts / totals.answers,
      "count");
  add("core.format_us", Median(self_by_name["core.format"]), "us");
  add("core.process_us", Median(dur_by_name["core.process"]), "us");
  add("cache.plan_hit_share",
      share(plans1.hits - plans0.hits, plans1.misses - plans0.misses), "ratio");
  add("cache.answer_hit_share",
      share(answers1.hits - answers0.hits, answers1.misses - answers0.misses),
      "ratio");
  add("cache.answer_evictions",
      static_cast<double>(answers1.evictions - answers0.evictions), "count");
  add("net.call_us", Median(dur_by_name["net.call"]), "us");
  add("net.overhead_us", Median(totals.overhead), "us");
  add("relational.insert_us", Median(write_by_name["relational.insert"]),
      "us");
  add("induction.induce_ms",
      Median(write_by_name["induction.induce"]) / 1000.0, "ms");
  add("induction.rules_induced",
      static_cast<double>(
          fx.system->dictionary().induced_rules_version().rules->size()),
      "count");
  add("relational.snapshot_ms",
      Median(write_by_name["relational.snapshot"]) / 1000.0, "ms");
  // Where the time goes: shares of served time (and of write time), in
  // the record rather than among the metrics, since they sum to one and
  // a faster layer raises every other layer's share.
  std::string shares = "{";
  double layers = 0;
  for (const char* layer : {"sql.parse", "core.describe", "core.rewrite",
                            "sql.execute", "inference.infer", "core.format"}) {
    const double v = totals.layer_us[layer] / served;
    layers += v;
    const std::string name = layer;
    shares += "\"" + name.substr(name.find('.') + 1) + "\":" + Num(v) + ",";
  }
  const double wire_share = std::max(0.0, wire_us / served);
  shares += "\"wire\":" + Num(wire_share) + ",\"glue\":" +
            Num(std::max(0.0, 1.0 - layers - wire_share)) +
            ",\"write.insert\":" +
            Num(write_us == 0 ? 0.0 : insert_us / write_us) +
            ",\"write.induce\":" +
            Num(write_us == 0 ? 0.0 : induce_us / write_us) + "}";

  const std::filesystem::path trace_dir = ".bench_build/traces";
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  const std::string trace_path =
      (trace_dir / (std::string(config.name) + "-seed" +
                    std::to_string(args.seed) + ".jsonl"))
          .string();
  const bool written = !ec && log.Write(trace_path);

  std::string record = RecordHead(args, config, 1, ops.size());
  record += ",\"ops_replayed\":" + std::to_string(replayed);
  record += ",\"spans\":" + std::to_string(log.spans().size());
  record += ",\"trace_file\":" + JsonString(written ? trace_path : "");
  record += ",\"checks\":" + JsonCounts(tally);
  record += ",\"chain_mismatches\":" + std::to_string(totals.chain_mismatches);
  record += ",\"layer_shares\":" + shares;
  record += ",\"traced_served_p50_us\":{";
  bool first = true;
  for (const auto& [cls, v] : served_by_class) {
    record += (first ? "\"" : ",\"") + std::string(OpClassName(cls)) +
              "\":" + Num(Median(v));
    first = false;
  }
  record += "},\"samples\":{";
  first = true;
  for (const char* name : {"sql.parse", "core.describe", "core.rewrite",
                           "sql.execute", "inference.infer", "core.format",
                           "core.process", "net.call"}) {
    record += (first ? "" : ",") + JsonString(name) + ":" +
              std::to_string(dur_by_name[name].size());
    first = false;
  }
  for (const char* name : {"relational.insert", "induction.induce",
                           "relational.snapshot"}) {
    record += ",\"write." + std::string(name) +
              "\":" + std::to_string(write_by_name[name].size());
  }
  record += ",\"net.overhead\":" + std::to_string(totals.overhead.size()) +
            "}}}";
  std::printf("%s\n", record.c_str());
  ReportNotes(tally);
  PrintResult(tally.incorrect == 0 && totals.chain_mismatches == 0, tally,
              metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else {
      Die("unknown flag " + flag);
    }
  }
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.seconds < 1) Die("--seconds must be at least 1");
  return args.trace != 0 ? RunTraced(args, *config) : RunTimed(args, *config);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
