// Golden intensional answers: each query's rendered answer (extensional
// table + intensional prose) is pinned to a file under tests/golden/.
// Regenerate after an intentional output change with
//
//   ./iqs_golden_tests --update-golden
//
// which rewrites the files in the source tree (IQS_GOLDEN_DIR).

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/persistence.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "sql/sqo_rewrite.h"
#include "gtest/gtest.h"
#include "tests/render_oracle.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

bool update_golden = false;
bool cache_off = false;  // --cache=off: run the whole suite uncached

struct GoldenCase {
  const char* name;  // golden file stem
  const char* sql;
};

// Ship testbed (paper Appendix C): the three worked examples plus
// selections and aggregates that exercise inference over every rule
// family.
const std::vector<GoldenCase>& ShipCases() {
  static const std::vector<GoldenCase> cases = {
      {"ship_example1", nullptr},  // filled from Example1Sql() below
      {"ship_example2", nullptr},
      {"ship_example3", nullptr},
      {"ship_class_0204",
       "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'"},
      {"ship_heavy_classes",
       "SELECT ClassName, Type FROM CLASS WHERE Displacement >= 7250"},
      {"ship_type_counts",
       "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type"},
      {"ship_sonar_range",
       "SELECT Sonar FROM SONAR WHERE SONAR.SonarType = 'BQQ'"},
      // A quoted numeric binds like the typed literal: the answer is the
      // one `Displacement > 3000` gets, never "provably empty".
      {"ship_quoted_displacement",
       "SELECT ClassName FROM CLASS WHERE Displacement > '3000' "
       "AND Type = 'SSN'"},
  };
  return cases;
}

const std::vector<GoldenCase>& EmployeeCases() {
  static const std::vector<GoldenCase> cases = {
      {"employee_high_salary",
       "SELECT Name FROM EMPLOYEE WHERE Salary > 100000"},
      {"employee_seniors",
       "SELECT Name, Position FROM EMPLOYEE WHERE Age >= 40"},
      {"employee_position_counts",
       "SELECT Position, COUNT(*) FROM EMPLOYEE GROUP BY Position "
       "ORDER BY Position"},
  };
  return cases;
}

std::string GoldenPath(const std::string& stem) {
  return std::string(IQS_GOLDEN_DIR) + "/" + stem + ".txt";
}

// Resolves a ship case's SQL (the worked examples have none inline).
std::string ShipSql(const GoldenCase& c) {
  if (c.sql != nullptr) return c.sql;
  if (std::strcmp(c.name, "ship_example1") == 0) return Example1Sql();
  if (std::strcmp(c.name, "ship_example2") == 0) return Example2Sql();
  return Example3Sql();
}

std::string Render(IqsSystem& system, const std::string& sql) {
  auto result = system.Query(sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
  if (!result.ok()) return {};
  std::string out = "-- query --\n" + sql + "\n-- extensional --\n";
  out += result->extensional.ToTable();
  out += "-- intensional --\n";
  out += system.Explain(*result);
  return out;
}

void CheckOrUpdate(const std::string& stem, const std::string& rendered) {
  ASSERT_FALSE(rendered.empty()) << stem;
  const std::string path = GoldenPath(stem);
  if (update_golden) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with --update-golden to create it)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "golden mismatch for " << path
      << " (rerun with --update-golden if the change is intentional)";
}

class GoldenAnswersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ship_ = testing_util::ShipSystemOrFail().release();
    employee_ = testing_util::EmployeeSystemOrFail().release();
    InductionConfig config;
    config.min_support = 3;
    if (ship_ != nullptr) ASSERT_OK(ship_->Induce(config));
    if (employee_ != nullptr) ASSERT_OK(employee_->Induce(config));
    if (cache_off) {
      // The --cache=off sweep: byte-identical goldens prove caching can
      // never change answers.
      if (ship_ != nullptr) ship_->processor().cache().set_enabled(false);
      if (employee_ != nullptr) {
        employee_->processor().cache().set_enabled(false);
      }
    }
  }
  static void TearDownTestSuite() {
    delete ship_;
    delete employee_;
    ship_ = nullptr;
    employee_ = nullptr;
  }
  static IqsSystem* ship_;
  static IqsSystem* employee_;
};

IqsSystem* GoldenAnswersTest::ship_ = nullptr;
IqsSystem* GoldenAnswersTest::employee_ = nullptr;

TEST_F(GoldenAnswersTest, ShipQueriesMatchGoldenFiles) {
  ASSERT_NE(ship_, nullptr);
  for (const GoldenCase& c : ShipCases()) {
    CheckOrUpdate(c.name, Render(*ship_, ShipSql(c)));
  }
}

TEST_F(GoldenAnswersTest, EmployeeQueriesMatchGoldenFiles) {
  ASSERT_NE(employee_, nullptr);
  for (const GoldenCase& c : EmployeeCases()) {
    CheckOrUpdate(c.name, Render(*employee_, c.sql));
  }
}

// Degraded goldens: with the inference engine failpoint active, every
// query still answers — the extensional table is byte-identical to the
// healthy golden and the intensional section is replaced by the
// "intensional unavailable" annotation. Pinned to <stem>_degraded.txt so
// the degraded output shape is itself regression-tested.
std::string RenderDegraded(IqsSystem& system, const std::string& sql,
                           const std::string& healthy) {
  // A warm answer cache would serve the memoized healthy answer and mask
  // the injected outage; degraded rendering must drive the live path.
  system.processor().cache().Clear();
  fault::ScopedFailpoint fp("infer.fire",
                            "error(unavailable,inference engine offline)");
  EXPECT_TRUE(fp.ok());
  std::string rendered = Render(system, sql);
  // The extensional block must be byte-identical to the healthy golden's.
  const std::string marker = "-- intensional --\n";
  size_t healthy_cut = healthy.find(marker);
  size_t degraded_cut = rendered.find(marker);
  EXPECT_NE(healthy_cut, std::string::npos);
  EXPECT_NE(degraded_cut, std::string::npos);
  if (healthy_cut != std::string::npos && degraded_cut != std::string::npos) {
    EXPECT_EQ(rendered.substr(0, degraded_cut), healthy.substr(0, healthy_cut))
        << sql << ": degradation perturbed the extensional answer";
    EXPECT_NE(rendered.find("intensional unavailable: "
                            "inference engine offline"),
              std::string::npos)
        << sql << ": missing degradation annotation";
  }
  return rendered;
}

TEST_F(GoldenAnswersTest, ShipQueriesDegradeToGoldenExtensionalAnswers) {
  ASSERT_NE(ship_, nullptr);
  for (const GoldenCase& c : ShipCases()) {
    std::string sql = ShipSql(c);
    CheckOrUpdate(std::string(c.name) + "_degraded",
                  RenderDegraded(*ship_, sql, Render(*ship_, sql)));
  }
}

TEST_F(GoldenAnswersTest, EmployeeQueriesDegradeToGoldenExtensionalAnswers) {
  ASSERT_NE(employee_, nullptr);
  for (const GoldenCase& c : EmployeeCases()) {
    CheckOrUpdate(std::string(c.name) + "_degraded",
                  RenderDegraded(*employee_, c.sql, Render(*employee_, c.sql)));
  }
}

// Recovered goldens: save the system twice with the second snapshot
// silently corrupted, load (which falls back to the first intact
// snapshot), and render from the recovered system. Pinned to
// <stem>_recovered.txt: crash recovery must reproduce answers
// byte-for-byte, intensional prose included.
std::string RenderRecovered(IqsSystem& system, const std::string& sql,
                            FormatterOptions options,
                            const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "iqs_recovered_" + stem;
  std::filesystem::remove_all(dir);
  EXPECT_OK(SaveSystem(&system, dir));
  {
    // manifest.csv is essential, so the whole damaged snapshot is
    // rejected at load — nothing from it can leak into the answers.
    fault::ScopedFailpoint fp("persist.corrupt", "corrupt(manifest.csv)");
    EXPECT_TRUE(fp.ok());
    EXPECT_OK(SaveSystem(&system, dir));
  }
  LoadReport report;
  auto loaded = LoadSystem(dir, std::move(options), &report);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return {};
  EXPECT_TRUE(report.fallback) << stem;
  std::string rendered = Render(**loaded, sql);
  std::filesystem::remove_all(dir);
  return rendered;
}

TEST_F(GoldenAnswersTest, RecoveredSystemsRenderGoldenAnswers) {
  ASSERT_NE(ship_, nullptr);
  ASSERT_NE(employee_, nullptr);
  FormatterOptions ship_options;
  ship_options.entity_noun = "Ship";
  ship_options.relationship_phrase = "is equipped with";
  CheckOrUpdate("ship_example1_recovered",
                RenderRecovered(*ship_, Example1Sql(), ship_options,
                                "ship_example1"));
  FormatterOptions employee_options;
  employee_options.entity_noun = "Employee";
  employee_options.relationship_phrase = "works in";
  CheckOrUpdate("employee_high_salary_recovered",
                RenderRecovered(*employee_,
                                "SELECT Name FROM EMPLOYEE WHERE Salary > "
                                "100000",
                                employee_options, "employee_high_salary"));
}

// Rewritten goldens: the same queries with the semantic rewrite pass on
// (DESIGN.md §12), pinned to <stem>_rewritten.txt. The extensional block
// must be byte-identical to the healthy golden's — rewrites change the
// plan, never the rows — and the rendering gains the "rewrite: rule R…
// fired" annotations, so the EXPLAIN surface of every rewrite kind is
// itself regression-tested.
const std::vector<GoldenCase>& RewrittenShipCases() {
  static const std::vector<GoldenCase> cases = {
      // Point restriction on an induced scheme: scan narrowing.
      {"ship_class_0204",
       "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'"},
      // Conjunct implied by the SSBN displacement band: elimination.
      {"ship_ssbn_implied_range",
       "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
       "AND Displacement > 1000"},
      // Conjunct disjoint from the band: proven empty, scan skipped.
      {"ship_ssbn_disjoint_range",
       "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
       "AND Displacement > 99999"},
  };
  return cases;
}

std::string RenderRewritten(IqsSystem& system, const std::string& sql,
                            const std::string& healthy) {
  // Cached plans/answers from the healthy render would mask the pass;
  // rewriting must happen on the live path.
  system.processor().cache().Clear();
  system.processor().set_sqo_mode(SqoMode::kOn);
  std::string rendered = Render(system, sql);
  system.processor().set_sqo_mode(SqoMode::kOff);
  const std::string marker = "-- intensional --\n";
  size_t healthy_cut = healthy.find(marker);
  size_t rewritten_cut = rendered.find(marker);
  EXPECT_NE(healthy_cut, std::string::npos);
  EXPECT_NE(rewritten_cut, std::string::npos);
  if (healthy_cut != std::string::npos &&
      rewritten_cut != std::string::npos) {
    EXPECT_EQ(rendered.substr(0, rewritten_cut),
              healthy.substr(0, healthy_cut))
        << sql << ": the rewrite perturbed the extensional answer";
  }
  EXPECT_NE(rendered.find("rewrite: rule"), std::string::npos)
      << sql << ": no rewrite annotation in the rendering";
  return rendered;
}

TEST_F(GoldenAnswersTest, ShipQueriesRewriteToGoldenAnswers) {
  ASSERT_NE(ship_, nullptr);
  // Earlier tests may have mutated the database (rule export bumps the
  // epoch), which rightly disarms the pass; re-induce so the rule base
  // describes the current data again. Induction is deterministic, so
  // the rule numbering in the goldens is stable.
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK(ship_->Induce(config));
  for (const GoldenCase& c : RewrittenShipCases()) {
    CheckOrUpdate(std::string(c.name) + "_rewritten",
                  RenderRewritten(*ship_, c.sql, Render(*ship_, c.sql)));
  }
}

// Caching can never change answers: every golden query renders
// byte-identically cold (cache miss), warm (answer + plan hit), and with
// the cache disabled outright.
TEST_F(GoldenAnswersTest, RenderingIsByteIdenticalCacheOnVsOff) {
  ASSERT_NE(ship_, nullptr);
  ASSERT_NE(employee_, nullptr);
  struct Target {
    IqsSystem* system;
    std::string sql;
  };
  std::vector<Target> targets;
  for (const GoldenCase& c : ShipCases()) targets.push_back({ship_, ShipSql(c)});
  for (const GoldenCase& c : EmployeeCases()) {
    targets.push_back({employee_, c.sql});
  }
  for (const Target& t : targets) {
    cache::QueryCache& cache = t.system->processor().cache();
    const bool was_enabled = cache.enabled();
    cache.set_enabled(true);
    cache.Clear();
    std::string cold = Render(*t.system, t.sql);
    std::string warm = Render(*t.system, t.sql);
    cache.set_enabled(false);
    std::string uncached = Render(*t.system, t.sql);
    cache.set_enabled(was_enabled);
    EXPECT_EQ(cold, warm) << t.sql << ": warm hit changed the rendering";
    EXPECT_EQ(cold, uncached) << t.sql << ": caching changed the rendering";
  }
}

// Caching can never serve one query's answer to another: a seeded
// shuffle of the golden queries, their quoted and literal-left
// spellings, a quoted-then-typed pair and a pair whose string constant
// spells the other's conditions runs against a cache that is never
// cleared mid-stream, and every render must equal its uncached render.
TEST_F(GoldenAnswersTest, ShuffledSpellingStreamRendersAsUncached) {
  ASSERT_NE(ship_, nullptr);
  ASSERT_NE(employee_, nullptr);
  using Step = std::pair<IqsSystem*, std::string>;
  // Each unit runs in order; units are shuffled.
  std::vector<std::vector<Step>> units;
  for (const GoldenCase& c : ShipCases()) {
    units.push_back({{ship_, ShipSql(c)}});
  }
  for (const GoldenCase& c : EmployeeCases()) {
    units.push_back({{employee_, c.sql}});
  }
  const std::vector<Step> respellings = {
      {ship_,
       "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE "
       "FROM SUBMARINE, CLASS WHERE SUBMARINE.CLASS = CLASS.CLASS "
       "AND 8000 < CLASS.DISPLACEMENT"},
      {ship_,
       "SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS "
       "WHERE SUBMARINE.CLASS = CLASS.CLASS AND 'SSBN' = CLASS.TYPE"},
      {ship_, "SELECT Id FROM SUBMARINE WHERE '0204' = SUBMARINE.Class"},
      {ship_, "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = 0204"},
      {ship_,
       "SELECT ClassName, Type FROM CLASS WHERE Displacement >= '7250'"},
      {ship_, "SELECT ClassName, Type FROM CLASS WHERE 7250 <= Displacement"},
      {ship_,
       "SELECT ClassName, Type FROM CLASS WHERE '7250' <= Displacement"},
      {ship_, "SELECT Sonar FROM SONAR WHERE 'BQQ' = SONAR.SonarType"},
      {ship_,
       "SELECT ClassName FROM CLASS WHERE Displacement > 3000 "
       "AND Type = 'SSN'"},
      {ship_,
       "SELECT ClassName FROM CLASS WHERE '3000' < Displacement "
       "AND 'SSN' = Type"},
      {employee_, "SELECT Name FROM EMPLOYEE WHERE Salary > '100000'"},
      {employee_, "SELECT Name FROM EMPLOYEE WHERE 100000 < Salary"},
      {employee_, "SELECT Name, Position FROM EMPLOYEE WHERE '40' <= Age"},
  };
  for (const Step& step : respellings) units.push_back({step});
  units.push_back(
      {{ship_, "SELECT ClassName FROM CLASS WHERE Displacement > '8000'"},
       {ship_, "SELECT ClassName FROM CLASS WHERE Displacement > 8000"}});
  units.push_back(
      {{ship_,
        "SELECT ClassName FROM CLASS "
        "WHERE Type = 'SSN and CLASS.Displacement > 3000'"},
       {ship_,
        "SELECT ClassName FROM CLASS WHERE Type = 'SSN' "
        "AND Displacement > 3000"}});
  std::mt19937_64 rng(0x60DE11);
  for (size_t i = units.size(); i > 1; --i) {
    std::swap(units[i - 1], units[rng() % i]);
  }
  std::vector<Step> stream;
  for (const std::vector<Step>& unit : units) {
    stream.insert(stream.end(), unit.begin(), unit.end());
  }

  const bool ship_was_enabled = ship_->processor().cache().enabled();
  const bool employee_was_enabled = employee_->processor().cache().enabled();
  ship_->processor().cache().set_enabled(false);
  employee_->processor().cache().set_enabled(false);
  std::vector<std::string> uncached;
  for (const Step& step : stream) {
    uncached.push_back(Render(*step.first, step.second));
  }
  ship_->processor().cache().set_enabled(true);
  employee_->processor().cache().set_enabled(true);
  ship_->processor().cache().Clear();  // once, before the stream
  employee_->processor().cache().Clear();
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(Render(*stream[i].first, stream[i].second), uncached[i])
        << "step " << i << ": " << stream[i].second;
  }
  ship_->processor().cache().set_enabled(ship_was_enabled);
  employee_->processor().cache().set_enabled(employee_was_enabled);
}

// The single-buffer renderer against the string-concatenating reference
// it replaced (tests/render_oracle.h): every golden query, healthy,
// degraded and rewritten, renders byte-identically both ways.
TEST_F(GoldenAnswersTest, RenderingMatchesTheConcatenatingReference) {
  ASSERT_NE(ship_, nullptr);
  ASSERT_NE(employee_, nullptr);
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK(ship_->Induce(config));
  auto compare = [](const IqsSystem& system, const std::string& sql) {
    auto result = system.Query(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    render_oracle::ExpectRendersAsReference(system.formatter(), *result, sql);
  };
  for (const GoldenCase& c : ShipCases()) compare(*ship_, ShipSql(c));
  for (const GoldenCase& c : EmployeeCases()) compare(*employee_, c.sql);
  {
    fault::ScopedFailpoint fp("infer.fire",
                              "error(unavailable,inference engine offline)");
    ASSERT_TRUE(fp.ok());
    ship_->processor().cache().Clear();
    employee_->processor().cache().Clear();
    for (const GoldenCase& c : ShipCases()) compare(*ship_, ShipSql(c));
    for (const GoldenCase& c : EmployeeCases()) compare(*employee_, c.sql);
  }
  ship_->processor().cache().Clear();
  ship_->processor().set_sqo_mode(SqoMode::kOn);
  for (const GoldenCase& c : RewrittenShipCases()) compare(*ship_, c.sql);
  ship_->processor().set_sqo_mode(SqoMode::kOff);
}

// Over-the-wire goldens: the same renders reconstructed from iqs_serverd
// query responses. The server adds transport, never semantics, so the
// reassembled "-- query --/-- extensional --/-- intensional --" document
// must be byte-identical to the in-process render — and therefore to the
// pinned golden files, rewritten and degraded variants included.
std::string WireRender(net::BlockingClient& client, const std::string& sql) {
  net::JsonWriter w;
  w.BeginObject();
  w.Field("verb", std::string("query"));
  w.Field("sql", sql);
  w.EndObject();
  auto response = client.Call(w.Take(), /*timeout_ms=*/30000);
  EXPECT_TRUE(response.ok()) << sql << " -> " << response.status();
  if (!response.ok()) return {};
  auto parsed = net::JsonValue::Parse(*response);
  EXPECT_TRUE(parsed.ok()) << *response;
  if (!parsed.ok()) return {};
  const net::JsonValue* ok = parsed->Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->AsBool()) << *response;
  const net::JsonValue* table = parsed->Find("table");
  const net::JsonValue* explain = parsed->Find("explain");
  EXPECT_TRUE(table != nullptr && table->is_string()) << sql;
  EXPECT_TRUE(explain != nullptr && explain->is_string()) << sql;
  if (table == nullptr || !table->is_string() || explain == nullptr ||
      !explain->is_string()) {
    return {};
  }
  return "-- query --\n" + sql + "\n-- extensional --\n" + table->AsString() +
         "-- intensional --\n" + explain->AsString();
}

void WireSetSqo(net::BlockingClient& client, const std::string& value) {
  net::JsonWriter w;
  w.BeginObject();
  w.Field("verb", std::string("set"));
  w.Field("option", std::string("sqo"));
  w.Field("value", value);
  w.EndObject();
  auto response = client.Call(w.Take(), /*timeout_ms=*/30000);
  ASSERT_TRUE(response.ok()) << response.status();
}

TEST_F(GoldenAnswersTest, WireAnswersAreByteIdenticalToInProcess) {
  ASSERT_NE(ship_, nullptr);
  ASSERT_NE(employee_, nullptr);
  // Earlier tests mutated epochs (snapshot export); realign the rule
  // base so the rewrite pass is armed, exactly as the in-process
  // rewritten-golden test does.
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK(ship_->Induce(config));
  ASSERT_OK(employee_->Induce(config));

  net::ServerConfig server_config;
  server_config.host = "127.0.0.1";
  server_config.port = 0;
  net::IqsServer ship_server(ship_, server_config);
  net::IqsServer employee_server(employee_, server_config);
  ASSERT_OK(ship_server.Start());
  ASSERT_OK(employee_server.Start());
  net::BlockingClient ship_client;
  ASSERT_OK(ship_client.Connect("127.0.0.1", ship_server.port()));
  net::BlockingClient employee_client;
  ASSERT_OK(employee_client.Connect("127.0.0.1", employee_server.port()));

  // Healthy renders, checked against the same golden files as the
  // in-process suite.
  for (const GoldenCase& c : ShipCases()) {
    const std::string sql = ShipSql(c);
    const std::string wire = WireRender(ship_client, sql);
    EXPECT_EQ(wire, Render(*ship_, sql)) << c.name;
    if (!update_golden) CheckOrUpdate(c.name, wire);
  }
  for (const GoldenCase& c : EmployeeCases()) {
    const std::string wire = WireRender(employee_client, c.sql);
    EXPECT_EQ(wire, Render(*employee_, c.sql)) << c.name;
    if (!update_golden) CheckOrUpdate(c.name, wire);
  }

  // Degraded variants: the failpoint is armed in-process (the server
  // shares this process), so the wire query walks the same degraded
  // path the shell would.
  for (const GoldenCase& c : ShipCases()) {
    const std::string sql = ShipSql(c);
    fault::ScopedFailpoint fp("infer.fire",
                              "error(unavailable,inference engine offline)");
    ASSERT_TRUE(fp.ok());
    ship_->processor().cache().Clear();
    const std::string wire = WireRender(ship_client, sql);
    ship_->processor().cache().Clear();
    EXPECT_EQ(wire, Render(*ship_, sql)) << c.name;
    EXPECT_NE(wire.find("intensional unavailable"), std::string::npos)
        << c.name;
    if (!update_golden) {
      CheckOrUpdate(std::string(c.name) + "_degraded", wire);
    }
  }

  // Rewritten variants: sqo armed per-session over the wire (the
  // session option is the wire-facing twin of set_sqo_mode).
  WireSetSqo(ship_client, "on");
  for (const GoldenCase& c : RewrittenShipCases()) {
    ship_->processor().cache().Clear();
    const std::string wire = WireRender(ship_client, c.sql);
    ship_->processor().cache().Clear();
    ship_->processor().set_sqo_mode(SqoMode::kOn);
    const std::string in_process = Render(*ship_, c.sql);
    ship_->processor().set_sqo_mode(SqoMode::kOff);
    EXPECT_EQ(wire, in_process) << c.name;
    EXPECT_NE(wire.find("rewrite: rule"), std::string::npos) << c.name;
    if (!update_golden) {
      CheckOrUpdate(std::string(c.name) + "_rewritten", wire);
    }
  }
  WireSetSqo(ship_client, "off");

  ship_server.Shutdown();
  employee_server.Shutdown();
}

}  // namespace
}  // namespace iqs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      iqs::update_golden = true;
    } else if (std::strcmp(argv[i], "--cache=off") == 0) {
      iqs::cache_off = true;
    }
  }
  return RUN_ALL_TESTS();
}
