#include "induction/rule_induction.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/algebra.h"

namespace iqs {
namespace {

// A maximal run of consecutive consistent X values sharing one Y value
// (step 3 of §5.2.1). Shared between the row and columnar paths.
struct Run {
  Value x_lo;
  Value x_hi;
  Value y;
};

// Steps 3b/4: family completeness, pruning, and rule emission — shared
// verbatim between the two implementations so their outputs cannot
// drift. `inconsistent_ys` holds the Y values of inconsistent X groups
// in ascending (X, Y) insertion order.
Result<std::vector<Rule>> EmitRules(const std::vector<Run>& runs,
                                    const std::vector<int64_t>& support,
                                    const std::set<Value>& inconsistent_ys,
                                    const std::string& relation_name,
                                    const std::string& x_attr,
                                    const std::string& y_attr,
                                    const InductionConfig& config,
                                    InductionStats* stats) {
  // Family completeness: a consequent value y is covered completely iff
  // no X value mapping to y was inconsistent and none of y's runs gets
  // pruned. Only complete families support the converse implication used
  // by semantic query optimization.
  std::set<Value> incomplete_y = inconsistent_ys;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (config.prune && support[i] < config.min_support) {
      incomplete_y.insert(runs[i].y);
    }
  }

  std::vector<Rule> out;
  out.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (config.prune && support[i] < config.min_support) {
      ++stats->pruned;
      continue;
    }
    Rule rule;
    rule.scheme = x_attr + "->" + y_attr;
    rule.source_relation = relation_name;
    if (run.x_lo == run.x_hi) {
      rule.lhs.push_back(Clause::Equals(x_attr, run.x_lo));
    } else {
      IQS_ASSIGN_OR_RETURN(Clause clause,
                           Clause::Range(x_attr, run.x_lo, run.x_hi));
      rule.lhs.push_back(std::move(clause));
    }
    rule.rhs.clause = Clause::Equals(y_attr, run.y);
    rule.support = support[i];
    rule.family_complete = incomplete_y.count(run.y) == 0;
    out.push_back(std::move(rule));
  }
  return out;
}

void EmitInductionMetrics(const InductionStats& stats, size_t rules) {
  IQS_COUNTER_ADD("ils.pairs_considered", stats.distinct_pairs);
  IQS_COUNTER_ADD("ils.inconsistent_values", stats.inconsistent_values);
  IQS_COUNTER_ADD("ils.rules_induced", rules);
  IQS_COUNTER_ADD("ils.rules_pruned_nc", stats.pruned);
  IQS_SPAN_ANNOTATE("pairs", static_cast<int64_t>(stats.distinct_pairs));
  IQS_SPAN_ANNOTATE("rules", static_cast<int64_t>(rules));
  IQS_SPAN_ANNOTATE("pruned", static_cast<int64_t>(stats.pruned));
}

// --- Columnar hot path -------------------------------------------------
//
// The ids fed to the sort are pre-filtered to rows where both attributes
// are non-null, so the comparators skip the null checks Column::CompareRows
// performs and read the typed arrays directly. Each struct mirrors the
// matching case of CompareRows exactly (same three-way result on the same
// raw representation), which is what keeps the sorted order — and thus
// every downstream artifact — byte-identical to the generic comparator.

struct IntColCmp {
  const int64_t* v;
  int operator()(uint32_t a, uint32_t b) const {
    return v[a] < v[b] ? -1 : (v[a] > v[b] ? 1 : 0);
  }
};

struct RealColCmp {
  const double* v;
  int operator()(uint32_t a, uint32_t b) const {
    double d = v[a] - v[b];
    return d < 0 ? -1 : (d > 0 ? 1 : 0);
  }
};

struct StringColCmp {
  const std::string* v;
  int operator()(uint32_t a, uint32_t b) const {
    int c = v[a].compare(v[b]);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
};

struct DateColCmp {
  const Date* v;
  int operator()(uint32_t a, uint32_t b) const {
    int64_t x = v[a].ToEpochDays(), y = v[b].ToEpochDays();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
};

struct GenericColCmp {
  const Column* col;
  int operator()(uint32_t a, uint32_t b) const {
    return col->CompareRows(a, b);
  }
};

// Sorted ids plus the (X class, Y subclass) segmentation over them, in
// flat arrays: group g's Y subclasses are y_rep/y_count indexes
// [group_begin[g], group_begin[g + 1]). Representatives stay row ids —
// Values are materialized only for the few runs and inconsistent Ys
// that survive to rule emission.
struct Segmented {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> group_x;      // lowest row id of each X class
  std::vector<uint32_t> group_begin;  // offsets into y_rep, +1 sentinel
  std::vector<uint32_t> y_rep;        // first sorted id per Y subclass
  std::vector<uint32_t> y_count;      // instances per Y subclass
};

template <typename XCmp, typename YCmp>
void SortAndSegment(Segmented* seg, XCmp xcmp, YCmp ycmp) {
  std::vector<uint32_t>& ids = seg->ids;
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    int c = xcmp(a, b);
    if (c != 0) return c < 0;
    c = ycmp(a, b);
    if (c != 0) return c < 0;
    return a < b;
  });
  seg->group_begin.push_back(0);
  for (size_t i = 0; i < ids.size();) {
    size_t gend = i + 1;
    while (gend < ids.size() && xcmp(ids[i], ids[gend]) == 0) ++gend;
    // The group representative is the lowest row index across the whole
    // X class (the first sorted id only minimizes (Y, row)); each Y
    // representative is its subsegment's first id, already the lowest
    // row index there.
    uint32_t min_row = ids[i];
    for (size_t k = i + 1; k < gend; ++k) min_row = std::min(min_row, ids[k]);
    seg->group_x.push_back(min_row);
    for (size_t j = i; j < gend;) {
      size_t send = j + 1;
      while (send < gend && ycmp(ids[j], ids[send]) == 0) ++send;
      seg->y_rep.push_back(ids[j]);
      seg->y_count.push_back(static_cast<uint32_t>(send - j));
      j = send;
    }
    seg->group_begin.push_back(static_cast<uint32_t>(seg->y_rep.size()));
    i = gend;
  }
}

// X-major packed variant for 8-byte-keyed X columns (kInt/kReal/kDate):
// sorting contiguous (key, id) pairs beats the indirect comparator sort
// on cache misses alone, and X ties are resolved afterwards by tiny
// per-segment (Y, row) sorts — the overall order is still (X, Y, row).
// Key equality is "neither sorts before the other", which for doubles
// matches Sign3(a - b) == 0 (so -0.0 and 0.0 stay one X class).
template <typename K, typename KeyFn, typename YCmp>
void SortAndSegmentPacked(Segmented* seg, KeyFn xkey, YCmp ycmp) {
  std::vector<std::pair<K, uint32_t>> keyed;
  keyed.reserve(seg->ids.size());
  for (uint32_t id : seg->ids) keyed.emplace_back(xkey(id), id);
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<K, uint32_t>& a, const std::pair<K, uint32_t>& b) {
              return a.first < b.first;
            });
  const size_t n = keyed.size();
  seg->group_begin.push_back(0);
  for (size_t i = 0; i < n;) {
    size_t gend = i + 1;
    while (gend < n && !(keyed[i].first < keyed[gend].first)) ++gend;
    std::sort(keyed.begin() + static_cast<ptrdiff_t>(i),
              keyed.begin() + static_cast<ptrdiff_t>(gend),
              [&](const std::pair<K, uint32_t>& a,
                  const std::pair<K, uint32_t>& b) {
                int c = ycmp(a.second, b.second);
                if (c != 0) return c < 0;
                return a.second < b.second;
              });
    uint32_t min_row = keyed[i].second;
    for (size_t k = i + 1; k < gend; ++k) {
      min_row = std::min(min_row, keyed[k].second);
    }
    seg->group_x.push_back(min_row);
    for (size_t j = i; j < gend;) {
      size_t send = j + 1;
      while (send < gend && ycmp(keyed[j].second, keyed[send].second) == 0) {
        ++send;
      }
      seg->y_rep.push_back(keyed[j].second);
      seg->y_count.push_back(static_cast<uint32_t>(send - j));
      j = send;
    }
    seg->group_begin.push_back(static_cast<uint32_t>(seg->y_rep.size()));
    i = gend;
  }
  for (size_t i = 0; i < n; ++i) seg->ids[i] = keyed[i].second;
}

template <typename K, typename KeyFn>
void SortAndSegmentPackedWithY(Segmented* seg, KeyFn xkey, const Column& ycol) {
  switch (ycol.storage()) {
    case Column::Storage::kInt:
      return SortAndSegmentPacked<K>(seg, xkey, IntColCmp{ycol.ints().data()});
    case Column::Storage::kReal:
      return SortAndSegmentPacked<K>(seg, xkey,
                                     RealColCmp{ycol.reals().data()});
    case Column::Storage::kString:
      return SortAndSegmentPacked<K>(seg, xkey,
                                     StringColCmp{ycol.strings().data()});
    case Column::Storage::kDate:
      return SortAndSegmentPacked<K>(seg, xkey,
                                     DateColCmp{ycol.dates().data()});
    case Column::Storage::kMixed:
      return SortAndSegmentPacked<K>(seg, xkey, GenericColCmp{&ycol});
  }
}

template <typename XCmp>
void SortAndSegmentWithY(Segmented* seg, XCmp xcmp, const Column& ycol) {
  switch (ycol.storage()) {
    case Column::Storage::kInt:
      return SortAndSegment(seg, xcmp, IntColCmp{ycol.ints().data()});
    case Column::Storage::kReal:
      return SortAndSegment(seg, xcmp, RealColCmp{ycol.reals().data()});
    case Column::Storage::kString:
      return SortAndSegment(seg, xcmp, StringColCmp{ycol.strings().data()});
    case Column::Storage::kDate:
      return SortAndSegment(seg, xcmp, DateColCmp{ycol.dates().data()});
    case Column::Storage::kMixed:
      return SortAndSegment(seg, xcmp, GenericColCmp{&ycol});
  }
}

void SortAndSegmentTyped(Segmented* seg, const Column& xcol,
                         const Column& ycol) {
  switch (xcol.storage()) {
    case Column::Storage::kInt:
      return SortAndSegmentPackedWithY<int64_t>(
          seg, [p = xcol.ints().data()](uint32_t id) { return p[id]; }, ycol);
    case Column::Storage::kReal:
      return SortAndSegmentPackedWithY<double>(
          seg, [p = xcol.reals().data()](uint32_t id) { return p[id]; }, ycol);
    case Column::Storage::kString:
      return SortAndSegmentWithY(seg, StringColCmp{xcol.strings().data()},
                                 ycol);
    case Column::Storage::kDate:
      return SortAndSegmentPackedWithY<int64_t>(
          seg,
          [p = xcol.dates().data()](uint32_t id) { return p[id].ToEpochDays(); },
          ycol);
    case Column::Storage::kMixed:
      return SortAndSegmentWithY(seg, GenericColCmp{&xcol}, ycol);
  }
}

// The row path's run-extension and support checks use Value equality
// (`current.y == y`), which for a typed column coincides with
// CompareRows == 0 (same type, and -0.0 == 0.0 both ways). Only kMixed
// columns can hold Compare-equal-but-distinct spellings (Int 5 vs
// Real 5.0), so only they pay for Value materialization.
bool RowsValueEqual(const Column& col, uint32_t a, uint32_t b) {
  if (col.storage() != Column::Storage::kMixed) {
    return col.CompareRows(a, b) == 0;
  }
  return col.Get(a) == col.Get(b);
}

}  // namespace

Result<std::vector<Rule>> InduceScheme(const Relation& relation,
                                       const std::string& x_attr,
                                       const std::string& y_attr,
                                       const InductionConfig& config) {
  InductionStats stats;
  return InduceSchemeWithStats(relation, x_attr, y_attr, config, &stats);
}

Result<std::vector<Rule>> InduceSchemeWithStats(const Relation& relation,
                                                const std::string& x_attr,
                                                const std::string& y_attr,
                                                const InductionConfig& config,
                                                InductionStats* stats) {
  IQS_ASSIGN_OR_RETURN(ColumnarRelation transposed,
                       ColumnarRelation::Transpose(relation));
  return InduceSchemeColumnarWithStats(transposed, x_attr, y_attr, config,
                                       stats);
}

Result<std::vector<Rule>> InduceSchemeRowsWithStats(
    const Relation& relation, const std::string& x_attr,
    const std::string& y_attr, const InductionConfig& config,
    InductionStats* stats) {
  IQS_SPAN("ils.induce_scheme");
  IQS_COUNTER_INC("ils.schemes_considered");
  *stats = InductionStats();
  IQS_ASSIGN_OR_RETURN(size_t xi, relation.schema().IndexOf(x_attr));
  IQS_ASSIGN_OR_RETURN(size_t yi, relation.schema().IndexOf(y_attr));

  // Step 1: distinct (X, Y) pairs. Nulls do not participate in rules.
  // Step 2 needs per-X grouping, so collect Y values per X directly; the
  // map's value ordering gives us the sorted enumeration of X. The scan
  // partitions into per-chunk maps merged by set union — commutative over
  // ordered containers, so the result is partition-independent.
  const std::vector<Tuple>& all_rows = relation.rows();
  using PairMap = std::map<Value, std::set<Value>>;
  Result<PairMap> paired = exec::ParallelReduce<Result<PairMap>>(
      "exec.induce.pairs", all_rows.size(), 512, PairMap{},
      [&all_rows, xi, yi](size_t begin, size_t end) -> Result<PairMap> {
        PairMap local;
        for (size_t i = begin; i < end; ++i) {
          if (((i - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("ils.segment");
          const Value& x = all_rows[i].at(xi);
          const Value& y = all_rows[i].at(yi);
          if (x.is_null() || y.is_null()) continue;
          local[x].insert(y);
        }
        return local;
      },
      [](Result<PairMap>* acc, Result<PairMap>&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        for (auto& [x, ys] : *part) {
          (**acc)[x].merge(ys);
        }
      });
  IQS_RETURN_IF_ERROR(paired.status());
  PairMap& ys_of_x = *paired;
  for (const auto& [x, ys] : ys_of_x) {
    stats->distinct_pairs += ys.size();
  }

  // Step 2: an X value with multiple Y values is inconsistent.
  auto is_consistent = [](const std::set<Value>& ys) { return ys.size() == 1; };
  for (const auto& [x, ys] : ys_of_x) {
    if (!is_consistent(ys)) ++stats->inconsistent_values;
  }

  // Step 3: runs of consecutive X values with the same Y. Under
  // kDatabaseDomain, an inconsistent X value breaks the current run;
  // under kRemainingDomain it is skipped.
  std::vector<Run> runs;
  bool in_run = false;
  Run current;
  auto close_run = [&] {
    if (in_run) runs.push_back(current);
    in_run = false;
  };
  for (const auto& [x, ys] : ys_of_x) {
    if (!is_consistent(ys)) {
      if (config.run_policy == RunPolicy::kDatabaseDomain) close_run();
      continue;
    }
    const Value& y = *ys.begin();
    if (in_run && current.y == y) {
      current.x_hi = x;
    } else {
      close_run();
      current = Run{x, x, y};
      in_run = true;
    }
  }
  close_run();
  stats->runs = runs.size();

  // Step 4: count support = instances satisfying LHS /\ RHS, in one pass
  // over the relation with a binary search over the (sorted, disjoint)
  // runs. (Under kDatabaseDomain the LHS alone implies the RHS for every
  // instance with a non-null Y; under kRemainingDomain counting the
  // conjunction keeps support honest.)
  // Per-partition support counters summed per run index: integer adds,
  // so the totals are partition-independent.
  using SupportVec = std::vector<int64_t>;
  Result<SupportVec> supported = exec::ParallelReduce<Result<SupportVec>>(
      "exec.induce.support", all_rows.size(), 512,
      SupportVec(runs.size(), 0),
      [&all_rows, &runs, xi, yi](size_t begin,
                                 size_t end) -> Result<SupportVec> {
        SupportVec local(runs.size(), 0);
        for (size_t i = begin; i < end; ++i) {
          if (((i - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("ils.segment");
          const Value& x = all_rows[i].at(xi);
          const Value& y = all_rows[i].at(yi);
          if (x.is_null() || y.is_null()) continue;
          // Last run with x_lo <= x.
          size_t lo = 0, hi = runs.size();
          while (lo < hi) {
            size_t mid = lo + (hi - lo) / 2;
            if (runs[mid].x_lo <= x) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          if (lo == 0) continue;
          const Run& run = runs[lo - 1];
          if (x <= run.x_hi && y == run.y) local[lo - 1] += 1;
        }
        return local;
      },
      [](Result<SupportVec>* acc, Result<SupportVec>&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        for (size_t i = 0; i < part->size(); ++i) (**acc)[i] += (*part)[i];
      });
  IQS_RETURN_IF_ERROR(supported.status());
  SupportVec& support = *supported;

  std::set<Value> inconsistent_ys;
  for (const auto& [x, ys] : ys_of_x) {
    if (!is_consistent(ys)) {
      for (const Value& y : ys) inconsistent_ys.insert(y);
    }
  }
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> out,
      EmitRules(runs, support, inconsistent_ys, relation.name(), x_attr,
                y_attr, config, stats));
  EmitInductionMetrics(*stats, out.size());
  return out;
}

Result<std::vector<Rule>> InduceSchemeColumnarWithStats(
    const ColumnarRelation& relation, const std::string& x_attr,
    const std::string& y_attr, const InductionConfig& config,
    InductionStats* stats) {
  IQS_SPAN("ils.induce_scheme");
  IQS_COUNTER_INC("ils.schemes_considered");
  *stats = InductionStats();
  IQS_ASSIGN_OR_RETURN(size_t xi, relation.schema().IndexOf(x_attr));
  IQS_ASSIGN_OR_RETURN(size_t yi, relation.schema().IndexOf(y_attr));
  const Column& xcol = relation.column(xi);
  const Column& ycol = relation.column(yi);

  // Step 1 (columnar): ids of the rows where both attributes are
  // non-null, sorted by (X, Y, row index) with typed in-place compares —
  // no per-row Value materialization, no tree-node allocation. The
  // row-index tie-break makes the first id of every equal-class the
  // lowest row index in it, which is the spelling the row path's
  // first-insertion map/set keeps for Compare-equal-but-distinct values
  // (Int 5 vs Real 5.0, -0.0 vs 0.0). Steps 1+2 share one segmentation
  // pass; representatives stay row ids until rule emission.
  Segmented seg;
  seg.ids.reserve(relation.row_count());
  for (size_t r = 0; r < relation.row_count(); ++r) {
    if ((r & 8191) == 0) IQS_GOV_CHECKPOINT("ils.segment");
    if (xcol.IsNull(r) || ycol.IsNull(r)) continue;
    seg.ids.push_back(static_cast<uint32_t>(r));
  }
  // The sort itself is uninterruptible; bound it with checkpoints on
  // either side so a cancelled scheme never starts it.
  IQS_GOV_CHECKPOINT("ils.segment");
  SortAndSegmentTyped(&seg, xcol, ycol);
  IQS_GOV_CHECKPOINT("ils.segment");
  const size_t n_groups = seg.group_x.size();
  auto group_width = [&seg](size_t g) {
    return seg.group_begin[g + 1] - seg.group_begin[g];
  };
  for (size_t g = 0; g < n_groups; ++g) {
    stats->distinct_pairs += group_width(g);
    if (group_width(g) != 1) ++stats->inconsistent_values;
  }

  // Step 3: identical run construction to the row path, driven by the
  // group enumeration (ascending X), still in id space.
  struct RunRef {
    uint32_t x_lo, x_hi, y;
  };
  std::vector<RunRef> run_refs;
  bool in_run = false;
  RunRef current{0, 0, 0};
  auto close_run = [&] {
    if (in_run) run_refs.push_back(current);
    in_run = false;
  };
  for (size_t g = 0; g < n_groups; ++g) {
    if (group_width(g) != 1) {
      if (config.run_policy == RunPolicy::kDatabaseDomain) close_run();
      continue;
    }
    const uint32_t y = seg.y_rep[seg.group_begin[g]];
    if (in_run && RowsValueEqual(ycol, current.y, y)) {
      current.x_hi = seg.group_x[g];
    } else {
      close_run();
      current = RunRef{seg.group_x[g], seg.group_x[g], y};
      in_run = true;
    }
  }
  close_run();
  stats->runs = run_refs.size();

  // Step 4: support from the segmented counts instead of a second pass
  // over the rows. A row counts for run R iff x_lo <= X <= x_hi and
  // Y == R.y — runs are disjoint and ascending, so each X group lands in
  // at most one run (found by a monotone pointer, the dual of the row
  // path's binary search) and contributes the sizes of its matching Y
  // subsegments. Inconsistent groups inside a run's span count too,
  // exactly as the row path's per-row check admits them.
  std::vector<int64_t> support(run_refs.size(), 0);
  size_t rp = 0;
  for (size_t g = 0; g < n_groups; ++g) {
    while (rp < run_refs.size() &&
           xcol.CompareRows(run_refs[rp].x_hi, seg.group_x[g]) < 0) {
      ++rp;
    }
    if (rp == run_refs.size()) break;
    if (xcol.CompareRows(seg.group_x[g], run_refs[rp].x_lo) < 0) continue;
    for (uint32_t k = seg.group_begin[g]; k < seg.group_begin[g + 1]; ++k) {
      if (RowsValueEqual(ycol, seg.y_rep[k], run_refs[rp].y)) {
        support[rp] += static_cast<int64_t>(seg.y_count[k]);
      }
    }
  }

  // Materialize Values only for what rule emission consumes: the run
  // endpoints and the Y values of inconsistent groups.
  std::vector<Run> runs;
  runs.reserve(run_refs.size());
  for (const RunRef& r : run_refs) {
    runs.push_back(Run{xcol.Get(r.x_lo), xcol.Get(r.x_hi), ycol.Get(r.y)});
  }
  std::set<Value> inconsistent_ys;
  for (size_t g = 0; g < n_groups; ++g) {
    if (group_width(g) != 1) {
      for (uint32_t k = seg.group_begin[g]; k < seg.group_begin[g + 1]; ++k) {
        inconsistent_ys.insert(ycol.Get(seg.y_rep[k]));
      }
    }
  }
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> out,
      EmitRules(runs, support, inconsistent_ys, relation.name(), x_attr,
                y_attr, config, stats));
  EmitInductionMetrics(*stats, out.size());
  return out;
}

}  // namespace iqs
