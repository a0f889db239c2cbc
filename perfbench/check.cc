#include "check.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "common/string_util.h"

namespace perfbench {

using iqs::Value;

namespace {

bool Satisfies(const Value& v, const Cond& c) {
  if (v.is_null()) return false;
  int a = v.Compare(c.lo);
  switch (c.op) {
    case Cmp::kEq: return a == 0;
    case Cmp::kGt: return a > 0;
    case Cmp::kGe: return a >= 0;
    case Cmp::kLt: return a < 0;
    case Cmp::kLe: return a <= 0;
    case Cmp::kBetween: return a >= 0 && v.Compare(c.hi) <= 0;
  }
  return false;
}

std::string TrimRight(std::string s) {
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

struct Soundness {
  bool sound = true;
  std::string violation;
};

// Facts naming an attribute outside the FROM tables cannot be checked and
// are skipped.
Soundness CheckSoundness(const iqs::IntensionalAnswer& answer,
                         size_t answer_rows, const QuerySpec& spec,
                         const std::vector<const Table*>& tables,
                         const Expected& expected) {
  Soundness result;
  if (answer.empty_proof().has_value() && answer_rows > 0) {
    result.sound = false;
    result.violation = "provably empty, yet " + std::to_string(answer_rows) +
                       " rows: " + *answer.empty_proof();
    return result;
  }
  for (const iqs::IntensionalStatement& s : answer.statements()) {
    if (s.direction != iqs::AnswerDirection::kContains) continue;
    for (const iqs::Fact& fact : s.facts) {
      if (fact.kind != iqs::Fact::Kind::kRange) continue;
      const std::string qualifier = fact.clause.Qualifier();
      const std::string base = fact.clause.BaseAttribute();
      // A qualified fact names its FROM table; an unqualified one binds
      // to the first FROM table that has the attribute.
      const AttrBounds* bounds = nullptr;
      for (size_t t = 0; t < spec.tables.size() && bounds == nullptr; ++t) {
        if (!qualifier.empty() &&
            !iqs::EqualsIgnoreCase(spec.tables[t], qualifier)) {
          continue;
        }
        int col = tables[t]->Column(base);
        if (col >= 0) bounds = &expected.bounds[t][col];
      }
      // A fact over an attribute outside the FROM tables cannot be
      // checked here; with no base rows a fact holds vacuously.
      if (bounds == nullptr || !bounds->any) continue;
      if (bounds->has_null || !fact.clause.Satisfies(bounds->min) ||
          !fact.clause.Satisfies(bounds->max)) {
        // Intervals are convex in Value's total order, so checking the
        // extremes checks every row.
        result.sound = false;
        result.violation = "forward fact " + fact.ToString() +
                           " fails on base rows spanning [" +
                           bounds->min.ToString() + ", " +
                           bounds->max.ToString() + "]";
        return result;
      }
    }
  }
  return result;
}

}  // namespace

void RowHasher::Add(const std::vector<std::string>& cells) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over cells + separators
  for (const std::string& cell : cells) {
    for (unsigned char ch : cell) h = (h ^ ch) * 0x100000001b3ULL;
    h = (h ^ 0x1f) * 0x100000001b3ULL;
  }
  digest_.hash = ordered_ ? Mix(digest_.hash ^ h) : digest_.hash + Mix(h);
  ++digest_.rows;
}

RowsDigest DigestRelation(const iqs::Relation& relation, bool ordered) {
  RowHasher hasher(ordered);
  std::vector<std::string> cells;
  for (const iqs::Tuple& t : relation.rows()) {
    cells.clear();
    for (size_t i = 0; i < t.size(); ++i) cells.push_back(t.at(i).ToString());
    hasher.Add(cells);
  }
  return hasher.digest();
}

bool DigestTable(const std::string& table, bool ordered, RowsDigest* out) {
  RowHasher hasher(ordered);
  int rules = 0;
  size_t pos = 0;
  std::vector<std::string> cells;
  while (pos < table.size()) {
    size_t end = table.find('\n', pos);
    if (end == std::string::npos) end = table.size();
    std::string line = table.substr(pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line[0] == '+') {
      ++rules;
      continue;
    }
    if (rules != 2) continue;  // header line, or past the closing rule
    if (line.size() < 2 || line[0] != '|' || line.back() != '|') return false;
    cells.clear();
    size_t start = 1;
    while (start < line.size()) {
      size_t bar = line.find('|', start);
      std::string cell = line.substr(start, bar - start);
      if (cell.empty() || cell[0] != ' ') return false;
      cells.push_back(TrimRight(cell.substr(1)));
      start = bar + 1;
    }
    hasher.Add(cells);
  }
  if (rules != 3) return false;
  *out = hasher.digest();
  return true;
}

iqs::Result<Expected> Evaluate(const QuerySpec& spec,
                               const std::vector<const Table*>& tables,
                               const std::vector<size_t>& visible) {
  const size_t n = spec.tables.size();
  if (tables.size() != n || visible.size() != n) {
    return iqs::Status::InvalidArgument("one table per FROM entry");
  }
  auto resolve = [&](const ColRef& ref) -> iqs::Result<int> {
    int col = tables[ref.table]->Column(ref.attr);
    if (col < 0) {
      return iqs::Status::NotFound(spec.tables[ref.table] + " has no " +
                                   ref.attr);
    }
    return col;
  };

  // Single-table conditions filter each table first.
  std::vector<std::vector<size_t>> candidates(n);
  std::vector<std::vector<std::pair<int, const Cond*>>> conds(n);
  for (const Cond& c : spec.conds) {
    IQS_ASSIGN_OR_RETURN(int col, resolve(c.col));
    conds[c.col.table].push_back({col, &c});
  }
  for (size_t t = 0; t < n; ++t) {
    for (size_t r = 0; r < visible[t]; ++r) {
      const std::vector<Value>& row = tables[t]->rows[r];
      bool keep = true;
      for (const auto& [col, cond] : conds[t]) {
        if (!Satisfies(row[col], *cond)) {
          keep = false;
          break;
        }
      }
      if (keep) candidates[t].push_back(r);
    }
  }
  // Each join is checked at the later of its two tables.
  struct BoundJoin {
    int other_table, other_col, col;
  };
  std::vector<std::vector<BoundJoin>> joins(n);
  for (const JoinCond& j : spec.joins) {
    IQS_ASSIGN_OR_RETURN(int lcol, resolve(j.left));
    IQS_ASSIGN_OR_RETURN(int rcol, resolve(j.right));
    if (j.left.table > j.right.table) {
      joins[j.left.table].push_back({j.right.table, rcol, lcol});
    } else {
      joins[j.right.table].push_back({j.left.table, lcol, rcol});
    }
  }
  std::vector<std::pair<int, int>> select;
  for (const ColRef& ref : spec.select) {
    IQS_ASSIGN_OR_RETURN(int col, resolve(ref));
    select.push_back({ref.table, col});
  }

  std::vector<std::vector<char>> used(n);
  for (size_t t = 0; t < n; ++t) used[t].assign(visible[t], 0);
  std::vector<std::pair<Value, std::vector<std::string>>> out;
  std::map<Value, int64_t> groups;
  std::vector<size_t> choice(n);
  std::function<void(size_t)> walk = [&](size_t t) {
    if (t == n) {
      for (size_t i = 0; i < n; ++i) used[i][choice[i]] = 1;
      const Value& key =
          tables[select[0].first]->rows[choice[select[0].first]][select[0].second];
      if (spec.group_count) {
        ++groups[key];
        return;
      }
      std::vector<std::string> cells;
      for (const auto& [table, col] : select) {
        cells.push_back(tables[table]->rows[choice[table]][col].ToString());
      }
      out.push_back({key, std::move(cells)});
      return;
    }
    for (size_t r : candidates[t]) {
      bool match = true;
      for (const BoundJoin& j : joins[t]) {
        const Value& mine = tables[t]->rows[r][j.col];
        const Value& theirs = tables[j.other_table]->rows[choice[j.other_table]]
                                                         [j.other_col];
        if (mine.is_null() || theirs.is_null() || mine.Compare(theirs) != 0) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      choice[t] = r;
      walk(t + 1);
    }
  };
  walk(0);

  if (spec.group_count) {
    for (const auto& [key, count] : groups) {
      out.push_back({key, {key.ToString(), std::to_string(count)}});
    }
  }
  if (spec.order_by) {
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first.Compare(b.first) < 0;
    });
  }
  Expected expected;
  RowHasher hasher(spec.order_by);
  for (const auto& row : out) hasher.Add(row.second);
  expected.digest = hasher.digest();
  expected.bounds.resize(n);
  for (size_t t = 0; t < n; ++t) {
    expected.bounds[t].resize(tables[t]->columns.size());
    for (size_t r = 0; r < visible[t]; ++r) {
      if (!used[t][r]) continue;
      const std::vector<Value>& row = tables[t]->rows[r];
      for (size_t c = 0; c < row.size(); ++c) {
        AttrBounds& b = expected.bounds[t][c];
        if (row[c].is_null()) {
          b.has_null = true;
          continue;
        }
        if (!b.any || row[c].Compare(b.min) < 0) b.min = row[c];
        if (!b.any || row[c].Compare(b.max) > 0) b.max = row[c];
        b.any = true;
      }
    }
  }
  return expected;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kUnsound: return "unsound";
    case Outcome::kIncorrect: return "incorrect";
  }
  return "?";
}

Verdict Classify(const iqs::Result<iqs::QueryResult>& result,
                 const QuerySpec& spec,
                 const std::vector<const Table*>& tables,
                 const Expected& expected) {
  if (!result.ok()) return {Outcome::kError, result.status().ToString()};
  RowsDigest digest = DigestRelation(result->extensional, spec.order_by);
  if (!(digest == expected.digest)) {
    return {Outcome::kIncorrect,
            "rows differ from the oracle: got " + std::to_string(digest.rows) +
                ", expected " + std::to_string(expected.digest.rows)};
  }
  Soundness s = CheckSoundness(result->intensional, result->extensional.size(),
                               spec, tables, expected);
  if (!s.sound) return {Outcome::kUnsound, s.violation};
  return {};
}

void PutNum(std::string* out, uint64_t v) { *out += std::to_string(v) + " "; }

void PutText(std::string* out, const std::string& text) {
  PutNum(out, text.size());
  *out += text;
}

void PutValue(std::string* out, const Value& v) {
  PutNum(out, static_cast<uint64_t>(v.type()));
  PutText(out, v.ToString());
}

void PutAnswers(std::string* out, const std::vector<Expected>& answers) {
  PutNum(out, answers.size());
  for (const Expected& e : answers) {
    PutNum(out, e.digest.hash);
    PutNum(out, e.digest.rows);
    PutNum(out, e.bounds.size());
    for (const auto& table : e.bounds) {
      PutNum(out, table.size());
      for (const AttrBounds& b : table) {
        PutNum(out, b.any);
        PutNum(out, b.has_null);
        if (!b.any) continue;
        PutValue(out, b.min);
        PutValue(out, b.max);
      }
    }
  }
}

uint64_t Reader::ReadNum() {
  const size_t end = ok_ ? text_.find(' ', pos_) : std::string::npos;
  if (end == std::string::npos || end == pos_ || end - pos_ > 20) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (size_t i = pos_; i < end; ++i) {
    const char ch = text_[i];
    if (ch < '0' || ch > '9' || v > (UINT64_MAX - (ch - '0')) / 10) {
      ok_ = false;
      return 0;
    }
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  pos_ = end + 1;
  return v;
}

size_t Reader::ReadCount(size_t min_bytes) {
  const uint64_t n = ReadNum();
  if (n > (text_.size() - pos_) / min_bytes) {
    ok_ = false;
    return 0;
  }
  return static_cast<size_t>(n);
}

std::string Reader::ReadText() {
  const size_t size = ReadCount(1);
  pos_ += size;
  return text_.substr(pos_ - size, size);
}

Value Reader::ReadValue() {
  const uint64_t type = ReadNum();
  const std::string text = ReadText();
  if (!ok_ || type > static_cast<uint64_t>(iqs::ValueType::kDate)) {
    ok_ = false;
    return Value::Null();
  }
  const auto value_type = static_cast<iqs::ValueType>(type);
  // FromText reads empty text as null; an empty string is a string.
  if (value_type == iqs::ValueType::kString) return Value::String(text);
  auto value = Value::FromText(value_type, text);
  if (!value.ok()) {
    ok_ = false;
    return Value::Null();
  }
  return std::move(value).value();
}

std::vector<Expected> Reader::ReadAnswers() {
  // Each answer, table and column takes at least two bytes of text.
  std::vector<Expected> answers(ReadCount(2));
  for (Expected& e : answers) {
    e.digest.hash = ReadNum();
    e.digest.rows = ReadNum();
    e.bounds.resize(ReadCount(2));
    for (auto& table : e.bounds) {
      table.resize(ReadCount(2));
      for (AttrBounds& b : table) {
        b.any = ReadNum() != 0;
        b.has_null = ReadNum() != 0;
        if (!b.any) continue;
        b.min = ReadValue();
        b.max = ReadValue();
      }
    }
  }
  return answers;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace perfbench
