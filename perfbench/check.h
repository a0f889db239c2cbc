// Answer checks for the IQS benchmark: an oracle that evaluates a
// QuerySpec over the benchmark's own copy of the data, order-sensitive
// and multiset row hashes, the paper §4 soundness check of intensional
// answers, and exact percentiles over raw samples.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_processor.h"
#include "relational/relation.h"
#include "workload.h"

namespace perfbench {

// Row-set fingerprint: a sum of per-row hashes (a multiset hash), or a
// chained hash when the statement has ORDER BY.
struct RowsDigest {
  uint64_t hash = 0;
  size_t rows = 0;
  friend bool operator==(const RowsDigest& a, const RowsDigest& b) {
    return a.hash == b.hash && a.rows == b.rows;
  }
};

// Accumulates rows, each given as its cells' text (Value::ToString()).
class RowHasher {
 public:
  explicit RowHasher(bool ordered) : ordered_(ordered) {}
  void Add(const std::vector<std::string>& cells);
  RowsDigest digest() const { return digest_; }

 private:
  bool ordered_;
  RowsDigest digest_;
};

RowsDigest DigestRelation(const iqs::Relation& relation, bool ordered);

// Digest of the rows of a Relation::ToTable() rendering, as the wire's
// "table" field carries them. False when the text is not such a table.
bool DigestTable(const std::string& table, bool ordered, RowsDigest* out);

// Observed range of one attribute over the base rows behind an answer.
struct AttrBounds {
  bool any = false;
  bool has_null = false;
  iqs::Value min;
  iqs::Value max;
};

// What the oracle expects of one statement: its rows, and per FROM
// table and column the bounds of the base rows that produced them.
struct Expected {
  RowsDigest digest;
  std::vector<std::vector<AttrBounds>> bounds;
};

// Evaluates `spec` with nested loops over `tables` (one per FROM entry,
// in order), reading only the first `visible[i]` rows of each.
iqs::Result<Expected> Evaluate(const QuerySpec& spec,
                               const std::vector<const Table*>& tables,
                               const std::vector<size_t>& visible);

// How one served query is counted.
enum class Outcome {
  kOk,
  kError,      // the query returned an error status
  kUnsound,    // the intensional answer contradicts its rows
  kIncorrect,  // the rows differ from the oracle
};
const char* OutcomeName(Outcome outcome);

struct Verdict {
  Outcome outcome = Outcome::kOk;
  std::string detail;
};

// Classifies an in-process result against the oracle: rows first (a
// mismatch makes the run incorrect), then paper §4 soundness: every range
// fact of every forward (kContains) statement holds on every base row
// behind the answer, and an answer with an empty proof has no rows.
Verdict Classify(const iqs::Result<iqs::QueryResult>& result,
                 const QuerySpec& spec,
                 const std::vector<const Table*>& tables,
                 const Expected& expected);

// Text codec for the pipe between the measured process and the oracle's:
// numbers followed by a space, strings as their length and bytes, and
// each Value as its type and its ToString() text, which round-trips
// through Value::FromText.
void PutNum(std::string* out, uint64_t v);
void PutText(std::string* out, const std::string& text);
void PutValue(std::string* out, const iqs::Value& v);
void PutAnswers(std::string* out, const std::vector<Expected>& answers);

// Reads what the Put functions wrote, in the same order. Malformed or
// truncated text clears ok(); reads then return zeros, empty strings and
// nulls.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}
  uint64_t ReadNum();
  // A count of items that take at least `min_bytes` of text each; more
  // than the rest of the text holds is malformed.
  size_t ReadCount(size_t min_bytes);
  std::string ReadText();
  iqs::Value ReadValue();
  std::vector<Expected> ReadAnswers();
  bool ok() const { return ok_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Exact nearest-rank percentile of raw samples (q in [0, 1]): always one
// of the samples, never an interpolated value or a histogram bucket
// bound. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
