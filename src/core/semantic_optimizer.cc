#include "core/semantic_optimizer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/subsumption.h"

namespace iqs {

namespace {

// A top-level WHERE conjunct as the optimizer understands it.
// `recognized` means the conjunct restricts one column to one nonempty
// interval.
struct Conjunct {
  const SqlExpr* expr = nullptr;
  bool recognized = false;
  size_t table = 0;        // owning FROM entry (recognized only)
  std::string attribute;   // canonical schema spelling (recognized only)
  Interval interval;       // admitted values (recognized only)
  bool has_family = false;          // point seed with a complete family
  std::vector<int> family_ids;      // ids of those families' rules
};

Conjunct Classify(const BoundQuery& bound, const BoundConjunct& c) {
  Conjunct b;
  b.expr = c.expr;
  if (c.kind == BoundConjunct::Kind::kColumns) return b;  // join
  const bool between = c.kind == BoundConjunct::Kind::kBetween;
  if (c.constant.is_null()) return b;
  if (between && (c.high.is_null() || c.constant > c.high)) {
    return b;  // admits no row
  }
  if (!between && (c.op == CompareOp::kNe || c.op == CompareOp::kLike)) {
    return b;  // not interval-representable
  }
  Result<Interval> interval = between
                                  ? Interval::Closed(c.constant, c.high)
                                  : Interval::FromCompare(c.op, c.constant);
  if (!interval.ok()) return b;
  b.recognized = true;
  b.table = c.column.table;
  b.attribute = bound.attribute(c.column).name;
  b.interval = *interval;
  return b;
}

}  // namespace

bool ImpliedCondition::Admits(const Value& v) const {
  for (const Interval& interval : intervals) {
    if (interval.Contains(v)) return true;
  }
  return false;
}

std::string ImpliedCondition::ToString() const {
  std::string out = attribute + " in ";
  for (size_t i = 0; i < intervals.size(); ++i) {
    if (i > 0) out += " u ";
    out += intervals[i].ToString();
  }
  if (!complete) out += "  [incomplete family]";
  return out;
}

std::vector<ImpliedCondition> SemanticOptimizer::Derive(
    const QueryDescription& query, const RuleSet& rules) const {
  IQS_SPAN("optimizer.derive");
  IQS_COUNTER_INC("optimizer.derive.count");
  std::vector<ImpliedCondition> out;
  for (const Clause& condition : query.conditions) {
    if (!condition.IsPoint()) continue;
    const Value& y = *condition.interval().lo();
    // Group matching rules by scheme: each scheme contributes one
    // implied condition over its own X attribute.
    std::map<std::string, ImpliedCondition> by_scheme;
    for (size_t position : rules.WithRhsOn(condition.attribute())) {
      const Rule& rule = rules.rule(position);
      if (rule.lhs.size() != 1) continue;
      if (!rule.rhs.clause.IsPoint() ||
          *rule.rhs.clause.interval().lo() != y) {
        continue;
      }
      ImpliedCondition& implied = by_scheme[rule.scheme];
      if (implied.attribute.empty()) {
        implied.attribute = rule.lhs[0].attribute();
      }
      implied.intervals.push_back(rule.lhs[0].interval());
      implied.rule_ids.push_back(rule.id);
      implied.complete = implied.complete && rule.family_complete;
    }
    for (auto& [scheme, implied] : by_scheme) {
      // A restriction over the condition's own attribute is vacuous.
      if (SameAttribute(implied.attribute, condition.attribute(),
                        AttributeMatch::kBaseName)) {
        IQS_COUNTER_INC("optimizer.clauses_eliminated");
        continue;
      }
      if (!implied.complete) {
        IQS_COUNTER_INC("optimizer.incomplete_families");
      }
      out.push_back(std::move(implied));
    }
  }
  IQS_COUNTER_ADD("optimizer.clauses_added", out.size());
  IQS_SPAN_ANNOTATE("clauses_added", static_cast<int64_t>(out.size()));
  return out;
}

std::vector<ImpliedCondition> SemanticOptimizer::Derive(
    const QueryDescription& query) const {
  std::shared_ptr<const RuleSet> rules = dictionary_->induced_rules_snapshot();
  return Derive(query, *rules);
}

Result<RewritePlan> SemanticOptimizer::Rewrite(
    const SelectStatement& stmt, const RuleSet& rules, SqoMode mode,
    const Database& db, const InferenceEngine& engine) const {
  Result<BoundQuery> bound = Bind(stmt, db);
  if (!bound.ok()) {
    RewritePlan plan;  // declined: the executor reports the bind error
    plan.statement = stmt;
    return plan;
  }
  return Rewrite(*bound, rules, mode, engine);
}

Result<RewritePlan> SemanticOptimizer::Rewrite(
    const BoundQuery& query, const RuleSet& rules, SqoMode mode,
    const InferenceEngine& engine) const {
  IQS_SPAN("optimizer.rewrite");
  IQS_COUNTER_INC("optimizer.rewrite.count");
  const SelectStatement& stmt = *query.statement;
  RewritePlan plan;
  plan.statement = stmt;
  if (mode == SqoMode::kOff || stmt.where == nullptr) return plan;
  for (const BoundTable& table : query.tables) {
    if (table.is_virtual()) return plan;  // sys.* snapshots have no rules
  }

  // The pass does not analyze OR, NOT, literal-literal or literal LIKE
  // conjuncts (kOther), so it declines a statement that has one. Every
  // other conjunct is total: the binder type-checked it.
  std::vector<Conjunct> bound;
  bound.reserve(query.conjuncts.size());
  for (const BoundConjunct& c : query.conjuncts) {
    if (c.kind == BoundConjunct::Kind::kOther) {
      IQS_COUNTER_INC("optimizer.rewrite.unshaped");
      return plan;
    }
    bound.push_back(Classify(query, c));
  }

  const size_t n = bound.size();
  std::vector<bool> eliminated(n, false);
  // A conjunct whose implication justified a rewrite is pinned: dropping
  // it later would orphan that justification (mutual implications must
  // keep one side).
  std::vector<bool> load_bearing(n, false);
  std::vector<SqlExprPtr> narrows;
  std::set<std::pair<size_t, std::string>> narrowed;
  std::map<std::pair<size_t, std::string>, bool> null_cache;

  // Nulls do not participate in induction, so "seed ⇒ X ∈ hull" only
  // covers rows with non-null X; eliminating or adding a conjunct over a
  // nullable column could flip a null row in or out of the answer.
  auto column_is_nullable = [&](size_t table, const std::string& attr) {
    auto key = std::make_pair(table, ToLower(attr));
    auto it = null_cache.find(key);
    if (it != null_cache.end()) return it->second;
    bool nullable = true;
    const Relation& rel = *query.tables[table].relation;
    Result<size_t> idx = rel.schema().IndexOf(attr);
    if (idx.ok()) {
      nullable = false;
      for (const Tuple& row : rel.rows()) {
        if (row.at(*idx).is_null()) {
          nullable = true;
          break;
        }
      }
    }
    null_cache[key] = nullable;
    return nullable;
  };

  for (size_t ci = 0; ci < n && !plan.proven_empty; ++ci) {
    Conjunct& seed = bound[ci];
    if (!seed.recognized || eliminated[ci] || !seed.interval.IsPoint()) {
      continue;
    }
    const Value& y = *seed.interval.lo();
    const TableRef& owner = stmt.from[seed.table];

    // Complete single-LHS rule families on the seed's relation concluding
    // `attribute = y`, grouped by scheme. Inter-object rules carry role
    // qualifiers ("x.Class") and a relationship source; requiring the
    // source relation and bare/matching qualifiers keeps them out.
    struct Family {
      std::string x_attr;
      std::vector<Interval> intervals;
      std::vector<int> ids;
      bool complete = true;
    };
    std::map<std::string, Family> families;
    for (size_t position : rules.WithRhsOn(seed.attribute)) {
      const Rule& rule = rules.rule(position);
      if (rule.lhs.size() != 1) continue;
      if (!EqualsIgnoreCase(rule.source_relation, owner.name)) continue;
      std::string rhs_qual = rule.rhs.clause.Qualifier();
      std::string lhs_qual = rule.lhs[0].Qualifier();
      if (!rhs_qual.empty() && !EqualsIgnoreCase(rhs_qual, owner.name)) {
        continue;
      }
      if (!lhs_qual.empty() && !EqualsIgnoreCase(lhs_qual, owner.name)) {
        continue;
      }
      if (!rule.rhs.clause.IsPoint() ||
          *rule.rhs.clause.interval().lo() != y) {
        continue;
      }
      Family& f = families[rule.scheme];
      if (f.x_attr.empty()) f.x_attr = rule.lhs[0].attribute();
      f.intervals.push_back(rule.lhs[0].interval());
      f.ids.push_back(rule.id);
      f.complete = f.complete && rule.family_complete;
    }

    for (auto& [scheme, family] : families) {
      // Only a complete family supports the converse reading
      // "attribute = y ⇒ X ∈ (union of the family's LHS intervals)".
      if (!family.complete) {
        IQS_COUNTER_INC("optimizer.incomplete_families");
        continue;
      }
      std::string x_base = BaseName(family.x_attr);
      if (SameAttribute(family.x_attr, seed.attribute,
                        AttributeMatch::kBaseName)) {
        continue;  // vacuous self-restriction
      }
      std::sort(family.ids.begin(), family.ids.end());
      seed.has_family = true;
      seed.family_ids.insert(seed.family_ids.end(), family.ids.begin(),
                             family.ids.end());

      // Closed hull of the union: used by the contradiction test and by
      // narrowing, both of which tolerate the over-approximation.
      std::optional<Interval> hull;
      {
        const Value* lo = nullptr;
        const Value* hi = nullptr;
        bool bounded = true;
        for (const Interval& iv : family.intervals) {
          if (!iv.lo().has_value() || !iv.hi().has_value()) {
            bounded = false;
            break;
          }
          if (lo == nullptr || *iv.lo() < *lo) lo = &*iv.lo();
          if (hi == nullptr || *iv.hi() > *hi) hi = &*iv.hi();
        }
        if (bounded && lo != nullptr) {
          Result<Interval> h = Interval::Closed(*lo, *hi);
          if (h.ok()) hull = *h;
        }
      }

      // (a) elimination and (b) empty-proof against every other conjunct
      // over X on the same FROM entry.
      for (size_t di = 0; di < n && !plan.proven_empty; ++di) {
        if (di == ci || eliminated[di]) continue;
        const Conjunct& other = bound[di];
        if (!other.recognized || other.table != seed.table) continue;
        if (!SameAttribute(other.attribute, x_base,
                           AttributeMatch::kBaseName)) {
          continue;
        }
        bool implied = true;
        for (const Interval& iv : family.intervals) {
          if (!other.interval.ContainsInterval(iv)) {
            implied = false;
            break;
          }
        }
        if (implied) {
          if (load_bearing[di] ||
              column_is_nullable(seed.table, other.attribute)) {
            continue;
          }
          eliminated[di] = true;
          load_bearing[ci] = true;
          plan.steps.push_back(
              RewriteStep{RewriteKind::kEliminated, family.ids,
                          "eliminated `" + other.expr->ToString() + "`"});
          continue;
        }
        if (!hull.has_value()) continue;
        std::string qualified = owner.effective_name() + "." + x_base;
        std::vector<Fact> facts;
        facts.push_back(Fact::Range(Clause(qualified, *hull), family.ids,
                                    Fact::Origin::kRule));
        facts.push_back(Fact::Range(Clause(qualified, other.interval)));
        if (engine.DetectContradiction(facts).has_value()) {
          plan.proven_empty = true;
          load_bearing[ci] = true;
          plan.steps.push_back(RewriteStep{
              RewriteKind::kEmptyProven, family.ids,
              "proved empty: `" + other.expr->ToString() +
                  "` is disjoint from rule-implied " + qualified + " in " +
                  hull->ToString()});
        }
      }
      if (plan.proven_empty) break;

      // (c) scan narrowing: hand the hull to the index/predicate layer as
      // an extra BETWEEN conjunct. The full WHERE still applies, so the
      // closed-hull over-approximation of the union is safe.
      if (!hull.has_value()) continue;
      auto key = std::make_pair(seed.table, ToLower(x_base));
      if (narrowed.count(key) > 0) continue;
      const Schema& owner_schema = query.tables[seed.table].relation->schema();
      Result<size_t> xi = owner_schema.IndexOf(x_base);
      if (!xi.ok()) continue;
      const AttributeDef& x_def = owner_schema.attribute(*xi);
      bool already_tight = false;
      for (size_t di = 0; di < n; ++di) {
        if (eliminated[di] || !bound[di].recognized) continue;
        if (bound[di].table != seed.table) continue;
        if (!SameAttribute(bound[di].attribute, x_base,
                           AttributeMatch::kBaseName)) {
          continue;
        }
        if (hull->ContainsInterval(bound[di].interval)) {
          already_tight = true;
          break;
        }
      }
      if (already_tight) continue;
      if (column_is_nullable(seed.table, x_def.name)) continue;
      auto narrow = std::make_shared<SqlExpr>();
      narrow->kind = SqlExpr::Kind::kBetween;
      narrow->lhs = SqlOperand::Column(
          ColumnRef{owner.effective_name(), x_def.name});
      narrow->low = SqlOperand::Literal(*hull->lo(), hull->lo()->ToString());
      narrow->high = SqlOperand::Literal(*hull->hi(), hull->hi()->ToString());
      plan.steps.push_back(
          RewriteStep{RewriteKind::kNarrowed, family.ids,
                      "narrowed scan: `" + narrow->ToString() + "`"});
      narrows.push_back(std::move(narrow));
      narrowed.insert(key);
      load_bearing[ci] = true;
    }
  }

  // (d) intensional-only answering: every surviving conjunct is a point
  // restriction characterized by a complete family, so the rule base
  // subsumes the predicate and the extensional pass can be skipped.
  if (mode == SqoMode::kIntensional && !plan.proven_empty &&
      stmt.from.size() == 1 && !stmt.has_aggregates() &&
      stmt.group_by.empty() && stmt.having == nullptr && n > 0) {
    bool subsumed = true;
    bool any_seed = false;
    std::vector<int> ids;
    for (size_t i = 0; i < n; ++i) {
      if (eliminated[i]) continue;
      if (!bound[i].recognized || !bound[i].interval.IsPoint() ||
          !bound[i].has_family) {
        subsumed = false;
        break;
      }
      any_seed = true;
      ids.insert(ids.end(), bound[i].family_ids.begin(),
                 bound[i].family_ids.end());
    }
    if (subsumed && any_seed) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      plan.intensional_only = true;
      plan.steps.push_back(RewriteStep{
          RewriteKind::kIntensionalOnly, std::move(ids),
          "rule base subsumes the predicate; answered intensionally, "
          "extensional scan skipped"});
    }
  }

  // Rebuild the WHERE clause when conjuncts were dropped or added.
  bool any_eliminated =
      std::find(eliminated.begin(), eliminated.end(), true) !=
      eliminated.end();
  if (any_eliminated || !narrows.empty()) {
    std::vector<SqlExprPtr> kept;
    for (size_t i = 0; i < n; ++i) {
      if (!eliminated[i]) {
        kept.push_back(std::make_shared<SqlExpr>(*bound[i].expr));
      }
    }
    kept.insert(kept.end(), narrows.begin(), narrows.end());
    SqlExprPtr where;
    for (SqlExprPtr& part : kept) {
      if (where == nullptr) {
        where = std::move(part);
        continue;
      }
      auto conj = std::make_shared<SqlExpr>();
      conj->kind = SqlExpr::Kind::kAnd;
      conj->left = std::move(where);
      conj->right = std::move(part);
      where = std::move(conj);
    }
    plan.statement.where = std::move(where);  // null: WHERE fully eliminated
  }
  IQS_SPAN_ANNOTATE("steps", static_cast<int64_t>(plan.steps.size()));
  return plan;
}

}  // namespace iqs
