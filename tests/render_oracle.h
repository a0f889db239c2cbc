#ifndef IQS_TESTS_RENDER_ORACLE_H_
#define IQS_TESTS_RENDER_ORACLE_H_

// The string-concatenating rendering of intensional answers that the
// single-buffer renderer replaced, kept as a test-only reference (the
// way inference_oracle.h keeps the linear engine). Each function builds
// its text from temporaries: a clause's condition, a fact with its
// provenance, a statement from copies of its facts with the provenance
// cleared, and AnswerFormatter::Render's statement loop. The
// differential tests compare Clause::AppendConditionTo, Fact::AppendTo,
// IntensionalStatement::AppendTo, IntensionalAnswer::ToString and
// AnswerFormatter::Render against these byte for byte.

#include <string>

#include "core/answer_formatter.h"
#include "core/query_processor.h"
#include "fault/degrade.h"
#include "gtest/gtest.h"
#include "inference/fact.h"
#include "inference/intensional_answer.h"
#include "rules/clause.h"

namespace iqs {
namespace render_oracle {

inline std::string ConditionString(const Clause& clause) {
  const Interval& iv = clause.interval();
  const std::string& attribute = clause.attribute();
  if (iv.IsPoint()) {
    return attribute + " = " + iv.lo()->ToString();
  }
  std::string out;
  if (iv.lo().has_value() && iv.hi().has_value()) {
    out = iv.lo()->ToString() + (iv.lo_open() ? " < " : " <= ") + attribute +
          (iv.hi_open() ? " < " : " <= ") + iv.hi()->ToString();
  } else if (iv.lo().has_value()) {
    out = attribute + (iv.lo_open() ? " > " : " >= ") + iv.lo()->ToString();
  } else if (iv.hi().has_value()) {
    out = attribute + (iv.hi_open() ? " < " : " <= ") + iv.hi()->ToString();
  } else {
    out = attribute + " unrestricted";
  }
  return out;
}

inline std::string FactString(const Fact& fact) {
  std::string out = fact.kind == Fact::Kind::kType
                        ? fact.variable + " isa " + fact.type_name
                        : ConditionString(fact.clause);
  if (!fact.rule_ids.empty()) {
    out += "  [";
    for (size_t i = 0; i < fact.rule_ids.size(); ++i) {
      if (i > 0) out += ",";
      out += "R" + std::to_string(fact.rule_ids[i]);
    }
    out += "]";
  }
  return out;
}

inline std::string StatementString(const IntensionalStatement& statement) {
  std::string out = statement.direction == AnswerDirection::kContains
                        ? "answers ⊆ { "
                        : "answers ⊇ { ";
  for (size_t i = 0; i < statement.facts.size(); ++i) {
    if (i > 0) out += " and ";
    Fact f = statement.facts[i];
    f.rule_ids.clear();  // provenance shown once, at statement level
    out += FactString(f);
  }
  out += " }";
  if (!statement.rule_ids.empty()) {
    out += "  (by ";
    for (size_t i = 0; i < statement.rule_ids.size(); ++i) {
      if (i > 0) out += ", ";
      out += "R" + std::to_string(statement.rule_ids[i]);
    }
    out += ")";
  }
  return out;
}

inline std::string AnswerString(const IntensionalAnswer& answer) {
  std::string out;
  for (const IntensionalStatement& s : answer.statements()) {
    out += StatementString(s);
    out += "\n";
  }
  return out;
}

// AnswerFormatter::Render with the statement loop above; the summary
// sentence comes from the formatter under test.
inline std::string Render(const AnswerFormatter& formatter,
                          const QueryResult& result) {
  bool extensional_only = false;
  for (const fault::DegradationEvent& e : result.degradations) {
    if (e.action == fault::DegradeAction::kExtensionalOnly) {
      extensional_only = true;
      break;
    }
  }
  std::string out;
  if (extensional_only) {
    for (const fault::DegradationEvent& e : result.degradations) {
      if (e.action != fault::DegradeAction::kExtensionalOnly) continue;
      out += "intensional unavailable: " + e.reason + " [" + e.stage + "]\n";
    }
  } else {
    out = formatter.Summary(result);
    out += "\n";
  }
  for (const IntensionalStatement& s : result.intensional.statements()) {
    out += "  " + StatementString(s);
    if (s.direction == AnswerDirection::kContainedIn && !s.exact) {
      out += "  [approximate]";
    }
    out += "\n";
  }
  for (const RewriteStep& step : result.rewrites) {
    out += "  rewrite: " + step.ToString() + "\n";
  }
  for (const fault::DegradationEvent& e : result.degradations) {
    if (e.action == fault::DegradeAction::kExtensionalOnly) continue;
    out += "  degraded: " + e.ToString() + "\n";
  }
  return out;
}

// Compares every rendering of `result` with the reference: the
// formatter's Render, the answer's ToString, each fact and backward
// target with its provenance, and each query condition (one-sided and
// open bounds appear there, not in the statements). `what` names the
// query in failures.
inline void ExpectRendersAsReference(const AnswerFormatter& formatter,
                                     const QueryResult& result,
                                     const std::string& what) {
  EXPECT_EQ(formatter.Render(result), Render(formatter, result)) << what;
  EXPECT_EQ(result.intensional.ToString(), AnswerString(result.intensional))
      << what;
  std::string facts;
  std::string want;
  for (const Clause& c : result.description.conditions) {
    facts += c.ToConditionString() + "\n";
    want += ConditionString(c) + "\n";
  }
  for (const IntensionalStatement& s : result.intensional.statements()) {
    for (const Fact& f : s.facts) {
      facts += f.ToString() + "\n";
      want += FactString(f) + "\n";
    }
    facts += s.target.ToString() + "\n";
    want += FactString(s.target) + "\n";
  }
  EXPECT_EQ(facts, want) << what;
}

}  // namespace render_oracle
}  // namespace iqs

#endif  // IQS_TESTS_RENDER_ORACLE_H_
