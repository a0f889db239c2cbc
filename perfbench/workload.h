// Workload definitions for the IQS end-to-end benchmark: the four
// workloads, their seeded operation lists, the SQL each operation sends,
// and the benchmark's own copy of the data the oracle reads. See
// README.md for why each workload exists and which layer it loads.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/value.h"

namespace perfbench {

// SplitMix64's finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix(uint64_t x);

// One relation as the oracle sees it: names plus rows, copied once from
// the generated (or Appendix C) database through Database::Get.
struct Table {
  std::string name;
  std::vector<std::string> columns;
  size_t row_count = 0;
  std::vector<std::vector<iqs::Value>> rows;  // empty unless copied

  // Case-insensitive column lookup; -1 when absent.
  int Column(const std::string& attr) const;
};

// Copies `name`'s schema and row count, and its rows when `with_rows`.
iqs::Result<Table> CopyTable(const iqs::Database& db, const std::string& name,
                             bool with_rows = true);

// The seven fleet query classes (README.md), plus writes on fleet-churn.
enum OpClass { kPoint, kBand, kTyped, kJoin, kAgg, kEmpty, kRange, kWrite };
constexpr int kNumQueryClasses = 7;
const char* OpClassName(int cls);

enum class Cmp { kEq, kGt, kGe, kLt, kLe, kBetween };

struct ColRef {
  int table = 0;  // index into QuerySpec::tables
  std::string attr;
};

// `col <op> lo`, or `col BETWEEN lo AND hi`.
struct Cond {
  ColRef col;
  Cmp op = Cmp::kEq;
  iqs::Value lo;
  iqs::Value hi;
};

struct JoinCond {
  ColRef left;
  ColRef right;
};

// A conjunctive SELECT the oracle can evaluate without the SQL engine:
// projection (or one GROUP BY column plus COUNT(*)), equi-joins and
// column-vs-literal conditions.
struct QuerySpec {
  int cls = kPoint;
  std::vector<std::string> tables;
  std::vector<ColRef> select;
  bool group_count = false;  // SELECT select[0], COUNT(*) ... GROUP BY select[0]
  bool order_by = false;     // ORDER BY select[0]
  std::vector<JoinCond> joins;
  std::vector<Cond> conds;
  // Set for statements whose text is fixed elsewhere (paper Examples
  // 1-3); otherwise RenderSql builds it.
  std::string fixed_sql;
};

// Whether the numeric literal `value` is written quoted ('8000') in this
// seed's string-bound spelling: a seeded hash picks one value in
// sixteen, so every occurrence of a value is spelled the same way.
bool QuotedSpelling(uint64_t seed, int64_t value);

// The statement text. Without `quote_seed` every literal is typed;
// with it, numeric literals follow QuotedSpelling(*quote_seed, value).
std::string RenderSql(const QuerySpec& spec,
                      std::optional<uint64_t> quote_seed = std::nullopt);

// Whether any numeric literal of `spec` is quoted under `quote_seed`.
bool HasQuotedLiteral(const QuerySpec& spec, uint64_t quote_seed);

struct Op {
  int cls = kPoint;
  QuerySpec query;      // unused for writes
  int write_index = -1; // >= 0 for writes: the k-th append batch
};

struct WorkloadConfig {
  const char* name;
  size_t ships_per_type;    // 0 = the Appendix C ship testbed
  int64_t min_support;      // Nc for IqsSystem::Induce
  bool sqo;                 // semantic rewriting on
  int clients;              // closed-loop clients
  bool wire;                // clients speak net::BlockingClient
  int write_every;          // 0 = no writes
  // Operations generated per client per second of the run: 1.3 to 2.5
  // times the rate measured when the benchmark was written. Read-only
  // lists wrap, and hold more statements than the 1,024-entry answer
  // cache, so a wrap finds nothing cached; fleet-churn's list does not
  // wrap, and a program fast enough to finish it ends the run early. The
  // lists and their expected answers are the benchmark's own memory
  // inside rss_peak_mb (bench_heap_mb in the run record), so they are no
  // longer than that.
  size_t ops_per_client_second;
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

// Seeded operation list for one client. `hulls` is the number of ships
// generated (point queries name one of them).
std::vector<Op> FleetOps(const WorkloadConfig& config, uint64_t seed,
                         int client, size_t count, size_t hulls);

// The ship-wire hot set: paper Examples 1-3 plus class templates over
// CLASS and SUBMARINE, at least one statement per query class.
const std::vector<QuerySpec>& ShipHotSet();
// Seeded list of indices into ShipHotSet() for one client.
std::vector<int> ShipOps(uint64_t seed, int client, size_t count);

// Statements that carry the ROADMAP item 1 defect on the ship testbed:
// the quoted-literal reproduction (unsound at the parent) and a
// mixed-spelling BETWEEN (an error at the parent).
QuerySpec ShipUnsoundRepro();
QuerySpec ShipMixedBetween();

// The rows fleet-churn's k-th write appends to BATTLESHIP: two ships per
// Table-1 type, inside the type's displacement band, hull numbers from
// `first_hull` on.
std::vector<std::vector<iqs::Value>> WriteBatch(uint64_t seed, int k,
                                                int64_t first_hull);
constexpr int kShipsPerWrite = 24;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
