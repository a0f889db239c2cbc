#include "core/query_processor.h"

#include <algorithm>
#include <chrono>

#include "exec/exec_context.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "rules/subsumption.h"

namespace iqs {

namespace {

// Microseconds (rounded up, so a stage that ran reports nonzero) between
// two steady-clock points.
int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return nanos <= 0 ? 0 : (nanos + 999) / 1000;
}

}  // namespace

Result<QueryDescription> IntensionalQueryProcessor::Describe(
    const SelectStatement& stmt) const {
  IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(stmt, *db_));
  return Describe(bound);
}

Result<QueryDescription> IntensionalQueryProcessor::Describe(
    const BoundQuery& bound) const {
  IQS_SPAN("query.describe");
  QueryDescription description;
  for (const BoundTable& table : bound.tables) {
    description.object_types.push_back(table.relation->name());
  }
  // Column-vs-constant restrictions only; joins and literal-vs-literal
  // comparisons are not answer-set characterizations.
  for (const BoundConjunct& c : bound.conjuncts) {
    auto add = [&](Interval interval) {
      description.conditions.push_back(
          Clause(bound.tables[c.column.table].ref.name + "." +
                     bound.attribute(c.column).name,
                 std::move(interval)));
    };
    if (c.kind == BoundConjunct::Kind::kCompare) {
      // != and LIKE are not one interval; a null constant admits no row.
      if (c.op == CompareOp::kNe || c.op == CompareOp::kLike ||
          c.constant.is_null()) {
        continue;
      }
      IQS_ASSIGN_OR_RETURN(Interval interval,
                           Interval::FromCompare(c.op, c.constant));
      add(std::move(interval));
    } else if (c.kind == BoundConjunct::Kind::kBetween) {
      if (c.constant.is_null() || c.high.is_null()) continue;
      if (c.constant > c.high) {
        // A reversed BETWEEN admits no row. Described by its two bounds,
        // as `>= low AND <= high` is, it lets inference prove that.
        add(Interval::AtLeast(c.constant));
        add(Interval::AtMost(c.high));
        continue;
      }
      IQS_ASSIGN_OR_RETURN(Interval interval,
                           Interval::Closed(c.constant, c.high));
      add(std::move(interval));
    }
  }
  return description;
}

namespace {

// Funnels every query outcome into the error budget: clean, served
// degraded, or failed outright.
void RecordOutcome(const Result<QueryResult>& result) {
  fault::ErrorBudget& budget = fault::GlobalErrorBudget();
  if (!result.ok()) {
    budget.RecordFailed();
  } else if (result->degraded()) {
    budget.RecordDegraded();
  } else {
    budget.RecordOk();
  }
}

// Appends one structured record for this query to the global query log
// (success and failure alike). Runs after RecordOutcome so a log reader
// and the error budget agree on every query's disposition.
void LogQuery(const std::string& sql, InferenceMode mode,
              uint64_t rule_epoch, uint64_t db_epoch,
              const Result<QueryResult>& result) {
  obs::QueryLogRecord record;
  record.trace_id = obs::Tracer::CurrentTraceId();
  record.sql = cache::NormalizeSql(sql);
  record.mode = InferenceModeName(mode);
  record.ok = result.ok();
  record.rule_epoch = rule_epoch;
  record.db_epoch = db_epoch;
  if (result.ok()) {
    record.stats = result->stats;
    record.degradations.reserve(result->degradations.size());
    for (const fault::DegradationEvent& event : result->degradations) {
      record.degradations.push_back(event.ToString());
    }
  } else {
    record.error = result.status().ToString();
  }
  obs::GlobalQueryLog().Append(std::move(record));
}

}  // namespace

Result<QueryResult> IntensionalQueryProcessor::Process(
    const std::string& sql, InferenceMode mode) const {
  QueryOptions options;
  options.mode = mode;
  return Process(sql, options);
}

Result<QueryResult> IntensionalQueryProcessor::Process(
    const std::string& sql, const QueryOptions& options) const {
  // Governance: a deadline, budget, or wire identity runs the whole
  // pipeline under an ExecContext. The context is shared with the
  // registry so the cancel verb and the watchdog can reach it; the
  // registration drops before the context, and the context destructor
  // returns every charged byte to the global pool.
  std::shared_ptr<exec::ExecContext> gov;
  std::optional<exec::ScopedExecContext> gov_scope;
  std::optional<exec::ScopedQueryRegistration> gov_registration;
  if (options.deadline_ms > 0 || options.max_memory_kb > 0 ||
      options.session_id != 0) {
    exec::ExecContext::Config config;
    if (options.deadline_ms > 0) {
      config.deadline = std::chrono::milliseconds(options.deadline_ms);
    }
    config.max_memory_bytes = options.max_memory_kb * 1024;
    config.session_id = options.session_id;
    config.request_id = options.request_id;
    config.statement = sql;
    gov = std::make_shared<exec::ExecContext>(std::move(config));
    gov_scope.emplace(gov.get());
    gov_registration.emplace(gov);
    IQS_COUNTER_INC("gov.queries");
  }

  // Snapshot: concurrent re-induction swaps the set; this query keeps
  // reading the version it started with. When the snapshot load faults
  // the query degrades to extensional-only instead of failing.
  std::vector<fault::DegradationEvent> pre;
  std::shared_ptr<const RuleSet> rules;
  CacheEpochs epochs;
  bool versioned = false;
  if (Status fp = fault::Hit("dict.rulebase_snapshot"); !fp.ok()) {
    pre.push_back(fault::DegradationEvent{
        "rulebase", fault::DegradeAction::kExtensionalOnly, fp.message()});
    fault::RecordDegradation(pre.back());
  } else {
    // Epochs are read *before* any derivation, together with the snapshot
    // they version: an answer computed from this snapshot is keyed under
    // these values, and a concurrent bump makes the key unreachable.
    RuleBaseVersion version = dictionary_->induced_rules_version();
    rules = version.rules;
    epochs.rule_epoch = version.epoch;
    epochs.db_epoch = db_->epoch();
    versioned = true;
  }
  Result<QueryResult> result = ProcessImpl(sql, options, rules.get(),
                                           std::move(pre),
                                           versioned ? &epochs : nullptr);
  if (result.ok() && versioned) {
    result->rule_epoch = epochs.rule_epoch;
    result->db_epoch = epochs.db_epoch;
  }
  if (result.ok() && gov != nullptr) {
    result->stats.gov_deadline_ms = gov->deadline_ms();
    result->stats.gov_mem_peak_kb = (gov->peak_bytes() + 1023) / 1024;
    if (gov->cancelled()) {
      result->stats.gov_cancelled = StatusCodeName(gov->cancel_code());
    }
  }
  RecordOutcome(result);
  LogQuery(sql, options.mode, epochs.rule_epoch, epochs.db_epoch, result);
  return result;
}

Result<QueryResult> IntensionalQueryProcessor::ProcessWith(
    const std::string& sql, InferenceMode mode, const RuleSet& rules) const {
  // Explicit rule sets carry no epoch, so answers derived from them are
  // never cached (the plan cache, keyed on text alone, still applies).
  QueryOptions options;
  options.mode = mode;
  Result<QueryResult> result = ProcessImpl(sql, options, &rules, {}, nullptr);
  RecordOutcome(result);
  LogQuery(sql, mode, /*rule_epoch=*/0, /*db_epoch=*/0, result);
  return result;
}

Result<QueryResult> IntensionalQueryProcessor::ProcessImpl(
    const std::string& sql, const QueryOptions& options,
    const RuleSet* rules, std::vector<fault::DegradationEvent> pre,
    const CacheEpochs* epochs) const {
  IQS_SPAN("query.process");
  IQS_COUNTER_INC("query.count");
  using Clock = std::chrono::steady_clock;
  const InferenceMode mode = options.mode;
  QueryResult result;
  result.degradations = std::move(pre);

  // A fired cache failpoint bypasses the cache for this query: the
  // uncached path serves the identical answer, so nothing is degraded
  // and no event is recorded — the site's fire counter is the
  // observable (policy kCacheBypass). A per-call use_cache=false (a
  // session's `set cache off`) bypasses it the same way.
  const bool cache_on = options.use_cache && cache_.enabled();
  const bool lookups_on = cache_on && fault::Hit("cache.lookup").ok();

  Clock::time_point t0 = Clock::now();
  std::string plan_key;
  if (cache_on) plan_key = cache::NormalizeSql(sql);
  bool plan_hit = false;
  std::shared_ptr<const cache::CachedPlan> plan;
  if (lookups_on) {
    IQS_SPAN("cache.plan.lookup");
    plan = cache_.plans().Lookup(plan_key);
    if (plan != nullptr) {
      result.statement = plan->statement;
      plan_hit = true;
      IQS_COUNTER_INC("cache.plan.hits");
      IQS_SPAN_ANNOTATE("cache_hit", int64_t{1});
    } else {
      IQS_COUNTER_INC("cache.plan.misses");
    }
  }
  if (!plan_hit) {
    IQS_ASSIGN_OR_RETURN(result.statement, ParseSelect(sql));
    if (cache_on && fault::Hit("cache.insert").ok()) {
      auto fresh = std::make_shared<cache::CachedPlan>();
      fresh->statement = result.statement;
      cache_.plans().Insert(plan_key, std::move(fresh));
      IQS_COUNTER_INC("cache.plan.inserts");
    }
  }
  result.stats.plan_cache_hit = plan_hit;
  Clock::time_point t1 = Clock::now();
  result.stats.parse_micros = MicrosBetween(t0, t1);

  // One binding feeds Describe, the rewrite and the scan, so the
  // intensional answer reasons over the same typed constants the
  // executor compares. The description is derived from the statement AS
  // PARSED, before any semantic rewrite: the intensional answer
  // characterizes the query the user asked, and must not shift when the
  // optimizer drops a conjunct the rules imply.
  IQS_ASSIGN_OR_RETURN(BoundQuery bound, Bind(result.statement, *db_));
  IQS_ASSIGN_OR_RETURN(result.description, Describe(bound));
  Clock::time_point td = Clock::now();
  result.stats.describe_micros = MicrosBetween(t1, td);

  // ---- semantic rewrite (DESIGN.md §12) ---------------------------------
  // Runs only on the versioned path: an explicit rule set (ProcessWith)
  // carries no epochs, and a rewrite whose staleness cannot be judged is
  // a rewrite that must not fire.
  const SqoMode sqo = options.sqo.value_or(sqo_mode());
  std::optional<RewritePlan> rewrite;
  if (sqo != SqoMode::kOff && rules != nullptr && epochs != nullptr) {
    if (Status fp = fault::Hit("sqo.rewrite"); !fp.ok()) {
      fault::DegradationEvent event{
          "sqo", fault::DegradeAction::kSkipRewrite, fp.message()};
      fault::RecordDegradation(event);
      result.degradations.push_back(std::move(event));
    } else if (std::optional<uint64_t> induced_from =
                   dictionary_->induced_db_epoch();
               induced_from.has_value() &&
               *induced_from != epochs->db_epoch) {
      // The rules were induced from an older database state: they may no
      // longer describe the rows, so rewriting from them could change
      // answers. Rewriting pauses until re-induction catches up.
      IQS_COUNTER_INC("sqo.stale_skips");
    } else if (plan != nullptr && plan->rewrite.has_value() &&
               plan->rewrite_mode == sqo &&
               plan->rewrite_rule_epoch == epochs->rule_epoch &&
               plan->rewrite_db_epoch == epochs->db_epoch) {
      // A cached rewrite is replayed only under the exact mode and
      // epochs it was derived under; anything else re-optimizes.
      rewrite = plan->rewrite;
      IQS_COUNTER_INC("sqo.plan_rewrites_reused");
    } else {
      Result<RewritePlan> fresh =
          optimizer_.Rewrite(bound, *rules, sqo, engine_);
      if (fresh.ok()) {
        rewrite = std::move(fresh).value();
        // Cache the rewritten plan under this version — and only while
        // the version still holds, so a mid-rewrite mutation or
        // re-induction cannot publish a stale rewrite under a live key.
        if (rewrite->changed() && cache_on &&
            fault::Hit("cache.insert").ok() &&
            dictionary_->rule_epoch() == epochs->rule_epoch &&
            db_->epoch() == epochs->db_epoch) {
          auto entry = std::make_shared<cache::CachedPlan>();
          entry->statement = result.statement;
          entry->rewrite = *rewrite;
          entry->rewrite_mode = sqo;
          entry->rewrite_rule_epoch = epochs->rule_epoch;
          entry->rewrite_db_epoch = epochs->db_epoch;
          cache_.plans().Insert(plan_key, std::move(entry));
          IQS_COUNTER_INC("sqo.plan_rewrites_cached");
        }
      } else {
        // A failed rewrite costs the optimization, never the answer.
        fault::DegradationEvent event{
            "sqo", fault::DegradeAction::kSkipRewrite,
            fresh.status().message()};
        fault::RecordDegradation(event);
        result.degradations.push_back(std::move(event));
      }
    }
  }
  if (rewrite.has_value() && !rewrite->changed()) rewrite.reset();
  if (rewrite.has_value()) {
    result.rewrites = rewrite->steps;
    for (const RewriteStep& step : rewrite->steps) {
      switch (step.kind) {
        case RewriteKind::kEliminated:
          IQS_COUNTER_INC("sqo.eliminated");
          ++result.stats.sqo_eliminated;
          break;
        case RewriteKind::kNarrowed:
          IQS_COUNTER_INC("sqo.narrowed");
          ++result.stats.sqo_narrowed;
          break;
        case RewriteKind::kEmptyProven:
          IQS_COUNTER_INC("sqo.empty_proven");
          result.stats.sqo_empty_proven = true;
          break;
        case RewriteKind::kIntensionalOnly:
          IQS_COUNTER_INC("sqo.intensional_only");
          result.stats.sqo_intensional_only = true;
          break;
      }
    }
  }

  // The extensional scan retries transient faults with backoff before
  // giving up — without it there is nothing worth degrading to. A plan
  // with a proven-empty (or intensional-only) answer still runs the
  // pipeline shape over zero rows, so the output schema is identical to
  // a real scan that found nothing. A rewritten statement is bound
  // afresh, through the same Bind.
  std::optional<BoundQuery> rebound;
  if (rewrite.has_value()) {
    IQS_ASSIGN_OR_RETURN(rebound, Bind(rewrite->statement, *db_));
  }
  const BoundQuery& exec_bound = rebound.has_value() ? *rebound : bound;
  const bool skip_scan = rewrite.has_value() && rewrite->skip_scan();
  int attempts = 0;
  Result<Relation> extensional = fault::RetryTransientResult<Relation>(
      "exec.scan", /*max_attempts=*/3,
      [this, &exec_bound, skip_scan, &attempts]() {
        ++attempts;
        return skip_scan ? executor_.ExecuteSchemaOnly(exec_bound)
                         : executor_.Execute(exec_bound);
      });
  if (!extensional.ok()) return extensional.status();
  result.extensional = std::move(extensional).value();
  if (attempts > 1) {
    fault::DegradationEvent event{
        "executor", fault::DegradeAction::kRetry,
        "absorbed " + std::to_string(attempts - 1) +
            " transient fault(s) by retrying"};
    fault::RecordDegradation(event);
    result.degradations.push_back(std::move(event));
  }
  Clock::time_point t3 = Clock::now();
  result.stats.execute_micros = MicrosBetween(td, t3);
  result.stats.rows_scanned = executor_.last_stats().base_rows_loaded;
  result.stats.rows_returned = result.extensional.size();
  result.stats.index_prefiltered_tables =
      executor_.last_stats().index_prefiltered_tables;
  result.stats.columnar_tables = executor_.last_stats().columnar_tables;
  result.stats.columnar_blocks_total =
      executor_.last_stats().columnar_blocks_total;
  result.stats.columnar_blocks_pruned =
      executor_.last_stats().columnar_blocks_pruned;

  // Intensional-answer cache: the canonical predicate (description +
  // mode) versioned by the epochs this call started under. A hit
  // replaces the whole inference match with one LRU probe.
  const bool answer_cacheable =
      cache_on && epochs != nullptr && rules != nullptr;
  std::string answer_key;
  if (answer_cacheable) {
    answer_key = cache::AnswerKey(result.description, mode,
                                  epochs->rule_epoch, epochs->db_epoch);
  }
  bool answer_hit = false;
  if (answer_cacheable && lookups_on) {
    IQS_SPAN("cache.answer.lookup");
    if (auto cached = cache_.answers().Lookup(answer_key)) {
      result.intensional = cached->answer;
      // Replay the memoized annotations so a hit renders byte-identically
      // to the run that populated the entry. The global fault metrics saw
      // these events when they actually happened; they are not
      // re-recorded here.
      result.degradations.insert(result.degradations.end(),
                                 cached->degradations.begin(),
                                 cached->degradations.end());
      answer_hit = true;
      IQS_COUNTER_INC("cache.answer.hits");
      IQS_SPAN_ANNOTATE("cache_hit", int64_t{1});
    } else {
      IQS_COUNTER_INC("cache.answer.misses");
    }
  }
  if (!answer_hit && rules != nullptr) {
    // An inference fault costs the intensional answer, never the
    // extensional one: absorb the error, annotate, move on.
    size_t infer_from = result.degradations.size();
    Result<IntensionalAnswer> intensional = engine_.InferWith(
        result.description, mode, *rules, &result.degradations);
    if (intensional.ok()) {
      result.intensional = std::move(intensional).value();
      // Insert only (a) while the epochs still hold — if a writer or a
      // re-induction landed mid-derivation this answer may reflect the
      // newer state and must not be published under the older key — and
      // (b) when inference ran clean: a transient fault is not part of
      // the versioned state, so an answer degraded by one (skipped
      // rules) would replay its annotations long after the fault
      // cleared. Clean reruns repopulate the entry the next time.
      if (answer_cacheable && result.degradations.size() == infer_from &&
          fault::Hit("cache.insert").ok() &&
          dictionary_->rule_epoch() == epochs->rule_epoch &&
          db_->epoch() == epochs->db_epoch) {
        auto entry = std::make_shared<cache::CachedAnswer>();
        entry->answer = result.intensional;
        entry->degradations.assign(result.degradations.begin() + infer_from,
                                   result.degradations.end());
        cache_.answers().Insert(answer_key, std::move(entry));
        IQS_COUNTER_INC("cache.answer.inserts");
      }
    } else {
      fault::DegradationEvent event{
          "inference", fault::DegradeAction::kExtensionalOnly,
          intensional.status().message()};
      fault::RecordDegradation(event);
      result.degradations.push_back(std::move(event));
      IQS_COUNTER_INC("query.extensional_fallbacks");
    }
  }
  result.stats.answer_cache_hit = answer_hit;
  Clock::time_point t4 = Clock::now();
  result.stats.infer_micros = MicrosBetween(t3, t4);
  result.stats.total_micros = MicrosBetween(t0, t4);
  result.stats.degraded_events = result.degradations.size();
  if (!result.degradations.empty()) {
    IQS_SPAN_ANNOTATE("degraded_events",
                      static_cast<int64_t>(result.degradations.size()));
  }

  // Rule-firing accounting: distinct rules cited anywhere in the answer,
  // forward fact count, backward statement count.
  std::vector<int> fired;
  const IntensionalStatement* best_backward = nullptr;
  for (const IntensionalStatement& s : result.intensional.statements()) {
    if (s.direction == AnswerDirection::kContains) {
      result.stats.forward_facts += s.facts.size();
    } else {
      ++result.stats.backward_statements;
      if (s.exact && best_backward == nullptr) best_backward = &s;
    }
    fired.insert(fired.end(), s.rule_ids.begin(), s.rule_ids.end());
  }
  std::sort(fired.begin(), fired.end());
  fired.erase(std::unique(fired.begin(), fired.end()), fired.end());
  result.stats.rules_fired = fired.size();
  IQS_COUNTER_ADD("query.rules_fired", fired.size());

  // Coverage cost of the best exact backward statement (paper Example 2:
  // how much of the extensional answer the subset description reaches).
  if (best_backward != nullptr) {
    IQS_SPAN("query.coverage");
    Clock::time_point c0 = Clock::now();
    Result<double> coverage = Coverage(result, *best_backward);
    if (coverage.ok()) result.stats.coverage = *coverage;
    result.stats.coverage_micros = MicrosBetween(c0, Clock::now());
    IQS_HISTOGRAM_OBSERVE("query.coverage.micros",
                          result.stats.coverage_micros);
  }

  IQS_HISTOGRAM_OBSERVE("query.micros", result.stats.total_micros);
  IQS_SPAN_ANNOTATE("rules_fired",
                    static_cast<int64_t>(result.stats.rules_fired));
  IQS_SPAN_ANNOTATE("statements",
                    static_cast<int64_t>(result.intensional.size()));
  return result;
}

Result<double> IntensionalQueryProcessor::Coverage(
    const QueryResult& result,
    const IntensionalStatement& statement) const {
  const Relation& answers = result.extensional;
  if (answers.empty()) return 1.0;
  // Resolve each range fact against the output columns; unresolvable
  // facts (attributes not selected) are skipped.
  struct Bound {
    size_t column;
    const Clause* clause;
  };
  std::vector<Bound> bounds;
  for (const Fact& fact : statement.facts) {
    if (fact.kind != Fact::Kind::kRange) continue;
    for (size_t i = 0; i < answers.schema().size(); ++i) {
      if (SameAttribute(answers.schema().attribute(i).name,
                        fact.clause.attribute(), AttributeMatch::kBaseName)) {
        bounds.push_back(Bound{i, &fact.clause});
        break;
      }
    }
  }
  if (bounds.empty()) {
    return Status::NotFound(
        "no statement attribute appears in the extensional answer");
  }
  size_t covered = 0;
  for (const Tuple& row : answers.rows()) {
    bool ok = true;
    for (const Bound& b : bounds) {
      if (!b.clause->Satisfies(row.at(b.column))) {
        ok = false;
        break;
      }
    }
    if (ok) ++covered;
  }
  return static_cast<double>(covered) /
         static_cast<double>(answers.size());
}

}  // namespace iqs
