#include "inference/intensional_answer.h"

namespace iqs {

const char* AnswerDirectionName(AnswerDirection direction) {
  switch (direction) {
    case AnswerDirection::kContains:
      return "contains";
    case AnswerDirection::kContainedIn:
      return "contained-in";
  }
  return "unknown";
}

std::string IntensionalStatement::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void IntensionalStatement::AppendTo(std::string* out) const {
  out->append(direction == AnswerDirection::kContains ? "answers ⊆ { "
                                                      : "answers ⊇ { ");
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out->append(" and ");
    facts[i].AppendContentTo(out);  // provenance shown once, below
  }
  out->append(" }");
  if (rule_ids.empty()) return;
  out->append("  (by ");
  for (size_t i = 0; i < rule_ids.size(); ++i) {
    if (i > 0) out->append(", ");
    out->push_back('R');
    out->append(std::to_string(rule_ids[i]));
  }
  out->push_back(')');
}

const std::vector<IntensionalStatement>& IntensionalAnswer::statements()
    const {
  static const std::vector<IntensionalStatement> kNone;
  return body_ == nullptr ? kNone : body_->statements;
}

const std::optional<std::string>& IntensionalAnswer::empty_proof() const {
  static const std::optional<std::string> kNone;
  return body_ == nullptr ? kNone : body_->empty_proof;
}

IntensionalAnswer::Body& IntensionalAnswer::MutableBody() {
  if (body_ == nullptr) {
    body_ = std::make_shared<Body>();
  } else if (body_.use_count() > 1) {
    body_ = std::make_shared<Body>(*body_);
  }
  return *body_;
}

std::vector<const IntensionalStatement*> IntensionalAnswer::InDirection(
    AnswerDirection direction) const {
  std::vector<const IntensionalStatement*> out;
  for (const IntensionalStatement& s : statements()) {
    if (s.direction == direction) out.push_back(&s);
  }
  return out;
}

std::vector<std::string> IntensionalAnswer::ForwardTypes() const {
  std::vector<std::string> out;
  for (const IntensionalStatement& s : statements()) {
    if (s.direction != AnswerDirection::kContains) continue;
    for (const Fact& f : s.facts) {
      if (f.kind != Fact::Kind::kType) continue;
      bool seen = false;
      for (const std::string& existing : out) {
        if (existing == f.type_name) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(f.type_name);
    }
  }
  return out;
}

std::string IntensionalAnswer::ToString() const {
  std::string out;
  for (const IntensionalStatement& s : statements()) {
    s.AppendTo(&out);
    out.push_back('\n');
  }
  return out;
}

}  // namespace iqs
