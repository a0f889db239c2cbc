#include "rules/subsumption.h"

#include <string_view>

#include "common/string_util.h"

namespace iqs {

namespace {

std::string_view BaseName(std::string_view attribute) {
  size_t pos = attribute.rfind('.');
  return pos == std::string_view::npos ? attribute : attribute.substr(pos + 1);
}

bool IsQualified(const std::string& attribute) {
  return attribute.find('.') != std::string::npos;
}

}  // namespace

bool SameAttribute(const std::string& a, const std::string& b,
                   AttributeMatch match) {
  if (a == b || EqualsIgnoreCase(a, b)) return true;
  if (match == AttributeMatch::kBaseName) {
    return EqualsIgnoreCase(BaseName(a), BaseName(b));
  }
  bool qa = IsQualified(a);
  bool qb = IsQualified(b);
  if (qa == qb) return false;  // both qualified (differently) or both bare
  return EqualsIgnoreCase(BaseName(a), BaseName(b));
}

bool ClauseSubsumes(const Clause& general, const Clause& specific) {
  if (!SameAttribute(general.attribute(), specific.attribute())) return false;
  return general.interval().ContainsInterval(specific.interval());
}

bool ClauseSubsumesClipped(const Clause& general, const Clause& specific,
                           const Value& domain_lo, const Value& domain_hi) {
  if (!SameAttribute(general.attribute(), specific.attribute())) return false;
  Interval clipped = specific.interval().ClipTo(domain_lo, domain_hi);
  return general.interval().ContainsInterval(clipped);
}

const AttributeDomain* FindDomain(const std::vector<AttributeDomain>& domains,
                                  const std::string& attribute) {
  for (const AttributeDomain& d : domains) {
    if (SameAttribute(d.attribute, attribute)) return &d;
  }
  return nullptr;
}

bool LhsSubsumesConditions(const Rule& rule,
                           const std::vector<Clause>& conditions,
                           const std::vector<AttributeDomain>& active_domains,
                           AttributeMatch match) {
  for (const Clause& lhs_clause : rule.lhs) {
    bool matched = false;
    for (const Clause& cond : conditions) {
      if (!SameAttribute(lhs_clause.attribute(), cond.attribute(), match)) {
        continue;
      }
      const AttributeDomain* domain =
          FindDomain(active_domains, cond.attribute());
      if (domain == nullptr
              ? lhs_clause.interval().ContainsInterval(cond.interval())
              : lhs_clause.interval().ContainsInterval(
                    cond.interval().ClipTo(domain->lo, domain->hi))) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace iqs
