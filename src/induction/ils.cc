#include "induction/ils.h"

#include <chrono>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "fault/failpoint.h"
#include "exec/parallel.h"
#include "induction/candidate_generator.h"
#include "induction/inter_object.h"
#include "induction/rule_induction.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iqs {

namespace {

// Deterministic fan-out shared by the induction entry points: runs
// `fn(i)` (one candidate scheme or one object type each) across the pool,
// every slot filled independently, then concatenates the slot results in
// index order — the same rule order and ids the serial loop produced. The
// first error by slot index wins, matching serial early-exit behaviour.
Result<std::vector<Rule>> InduceSlots(
    const char* region, size_t n,
    const std::function<Result<std::vector<Rule>>(size_t)>& fn) {
  std::vector<std::optional<Result<std::vector<Rule>>>> slots(n);
  exec::ParallelFor(region, n, 1, [&slots, &fn](size_t i) {
    // One governance checkpoint per slot: a cancelled induction run stops
    // taking new schemes and unwinds via the ordered merge below, which
    // is what lets IqsSystem::Induce keep the previous rule base intact.
    if (Status gov = exec::Checkpoint("ils.induce"); !gov.ok()) {
      slots[i].emplace(std::move(gov));
      return;
    }
    slots[i].emplace(fn(i));
  });
  std::vector<Rule> out;
  for (std::optional<Result<std::vector<Rule>>>& slot : slots) {
    IQS_ASSIGN_OR_RETURN(std::vector<Rule> rules, std::move(*slot));
    for (Rule& r : rules) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

void InductiveLearningSubsystem::AttachIsaReadings(
    std::vector<Rule>* rules) const {
  for (Rule& rule : *rules) {
    if (rule.rhs.HasIsaReading()) continue;
    auto type_name =
        catalog_->hierarchy().FindByDerivation(rule.rhs.clause);
    if (!type_name.ok()) continue;
    rule.rhs.isa_type = *type_name;
    std::string qualifier = rule.rhs.clause.Qualifier();
    // Role-qualified consequents keep their role variable ("y.SonarType"
    // -> "y isa BQS"); everything else describes the generic instance x.
    rule.rhs.isa_variable =
        (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
  }
}

Result<std::vector<Rule>> InductiveLearningSubsystem::InduceIntraObject(
    const std::string& object_type, const InductionConfig& config) const {
  IQS_ASSIGN_OR_RETURN(std::vector<SchemeCandidate> candidates,
                       IntraObjectCandidates(*catalog_, object_type));
  if (candidates.empty()) return std::vector<Rule>{};
  // One epoch-cached columnar snapshot (DESIGN.md §14) shared by every
  // candidate scheme of this object type — the transpose is paid once
  // per epoch, not once per (X, Y) pair.
  IQS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> snapshot,
                       db_->ColumnarSnapshot(object_type));
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> out,
      InduceSlots("exec.induce.intra", candidates.size(),
                  [&](size_t i) -> Result<std::vector<Rule>> {
                    InductionStats stats;
                    return InduceSchemeColumnarWithStats(
                        *snapshot, candidates[i].x_attr,
                        candidates[i].y_attr, config, &stats);
                  }));
  AttachIsaReadings(&out);
  return out;
}

Result<std::vector<Rule>> InductiveLearningSubsystem::InduceInterObject(
    const std::string& relationship, const InductionConfig& config) const {
  IQS_ASSIGN_OR_RETURN(std::vector<RoleBinding> roles,
                       RelationshipRoles(*catalog_, relationship));
  IQS_ASSIGN_OR_RETURN(Relation view,
                       BuildRelationshipView(*db_, *catalog_, relationship));

  // Per-role attribute pools, restricted to columns the view materialized.
  struct RolePool {
    std::vector<std::string> sources;  // keys then classification
    std::vector<std::string> targets;  // classification
  };
  std::vector<RolePool> pools(roles.size());
  auto add_unique = [](std::vector<std::string>* list,
                       const std::string& name) {
    for (const std::string& existing : *list) {
      if (EqualsIgnoreCase(existing, name)) return;
    }
    list->push_back(name);
  };
  for (size_t i = 0; i < roles.size(); ++i) {
    for (const std::string& key :
         RoleKeyAttributes(*catalog_, roles[i].variable, roles[i].type_name)) {
      if (view.schema().Contains(key)) add_unique(&pools[i].sources, key);
    }
    for (const std::string& cls : RoleClassificationAttributes(
             *catalog_, roles[i].variable, roles[i].type_name)) {
      if (!view.schema().Contains(cls)) continue;
      add_unique(&pools[i].sources, cls);
      add_unique(&pools[i].targets, cls);
    }
  }

  // Enumerate the candidate (X, Y) pairs in the serial nesting order,
  // then fan them out across the pool.
  std::vector<std::pair<const std::string*, const std::string*>> pairs;
  for (size_t i = 0; i < roles.size(); ++i) {
    for (const std::string& x : pools[i].sources) {
      for (size_t j = 0; j < roles.size(); ++j) {
        if (j == i) continue;
        for (const std::string& y : pools[j].targets) {
          pairs.emplace_back(&x, &y);
        }
      }
    }
  }
  // The joined view is rebuilt per call (it is not a stored relation, so
  // the Database snapshot cache does not apply); transpose it once here
  // and share the columns across every candidate pair.
  IQS_ASSIGN_OR_RETURN(ColumnarRelation view_columns,
                       ColumnarRelation::Transpose(view));
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> out,
      InduceSlots("exec.induce.inter", pairs.size(),
                  [&](size_t p) -> Result<std::vector<Rule>> {
                    InductionStats stats;
                    IQS_ASSIGN_OR_RETURN(
                        std::vector<Rule> rules,
                        InduceSchemeColumnarWithStats(
                            view_columns, *pairs[p].first, *pairs[p].second,
                            config, &stats));
                    for (Rule& r : rules) r.source_relation = relationship;
                    return rules;
                  }));
  AttachIsaReadings(&out);
  return out;
}

Result<RuleSet> InductiveLearningSubsystem::InduceAll(
    const InductionConfig& config) const {
  IQS_TRACE_SCOPE("ils.induce_all");
  // kKeepPrevious: when this fires, InduceAll fails before any work and
  // IqsSystem::Induce leaves the previously installed rule base in place.
  IQS_FAILPOINT("ils.induce");
  IQS_COUNTER_INC("ils.induce_all.count");
  auto start = std::chrono::steady_clock::now();
  // Fan object types (then relationship types) out across the pool; the
  // ordered merge in InduceSlots keeps rule order — and therefore the ids
  // RuleSet assigns — identical to the serial loop. Scheme fan-out inside
  // each type runs inline on the worker (nested regions do not resubmit).
  RuleSet out;
  std::vector<std::string> intra;
  for (const std::string& name : catalog_->ObjectTypeNames()) {
    if (db_->Contains(name)) intra.push_back(name);
  }
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> intra_rules,
      InduceSlots("exec.induce.types", intra.size(),
                  [&](size_t i) { return InduceIntraObject(intra[i], config); }));
  out.AddAll(std::move(intra_rules));
  std::vector<std::string> inter;
  for (const std::string& name : catalog_->RelationshipTypeNames()) {
    if (db_->Contains(name)) inter.push_back(name);
  }
  IQS_ASSIGN_OR_RETURN(
      std::vector<Rule> inter_rules,
      InduceSlots("exec.induce.types", inter.size(),
                  [&](size_t i) { return InduceInterObject(inter[i], config); }));
  out.AddAll(std::move(inter_rules));
  IQS_HISTOGRAM_OBSERVE(
      "ils.induce_all.micros",
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  IQS_GAUGE_SET("ils.rule_base_size", out.size());
  IQS_SPAN_ANNOTATE("rules", static_cast<int64_t>(out.size()));
  return out;
}

}  // namespace iqs
