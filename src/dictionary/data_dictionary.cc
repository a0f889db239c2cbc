#include "dictionary/data_dictionary.h"

#include "common/string_util.h"
#include "fault/failpoint.h"

namespace iqs {

DataDictionary::DataDictionary(const KerCatalog* catalog)
    : catalog_(catalog), declared_(catalog->DeclaredRules()) {}

Status DataDictionary::BuildFrames() {
  frames_.clear();
  frame_order_.clear();
  const TypeHierarchy& hierarchy = catalog_->hierarchy();
  for (const std::string& type_name : hierarchy.AllTypes()) {
    IQS_ASSIGN_OR_RETURN(const TypeNode* node, hierarchy.Get(type_name));
    Frame frame;
    frame.name = node->name;
    frame.parent = node->parent;
    frame.children = node->children;
    frame.derivation = node->derivation;
    // Own slots come from the object type definition if one exists (roots
    // always have one; subtypes usually do not).
    auto def = catalog_->GetObjectType(type_name);
    if (def.ok()) {
      for (const KerAttribute& a : (*def)->attributes) {
        frame.slots.push_back(FrameSlot{a.name, a.domain, a.is_key, ""});
      }
      frame.is_relationship =
          !(*def)->ObjectDomainAttributes(catalog_->domains()).empty();
    }
    // Inherited slots from every supertype, nearest first; a same-named
    // own slot redefines (shadows) the inherited one.
    IQS_ASSIGN_OR_RETURN(std::vector<std::string> supers,
                         hierarchy.SupertypesOf(type_name));
    for (const std::string& super : supers) {
      auto super_def = catalog_->GetObjectType(super);
      if (!super_def.ok()) continue;
      for (const KerAttribute& a : (*super_def)->attributes) {
        bool shadowed = false;
        for (const FrameSlot& existing : frame.slots) {
          if (EqualsIgnoreCase(existing.name, a.name)) {
            shadowed = true;
            break;
          }
        }
        if (!shadowed) {
          frame.slots.push_back(
              FrameSlot{a.name, a.domain, a.is_key, (*super_def)->name});
        }
      }
    }
    frame_order_.push_back(frame.name);
    frames_[ToLower(frame.name)] = std::move(frame);
  }
  return Status::Ok();
}

Result<const Frame*> DataDictionary::GetFrame(const std::string& name) const {
  IQS_FAILPOINT("dict.frame_lookup");
  auto it = frames_.find(ToLower(name));
  if (it == frames_.end()) {
    return Status::NotFound("no frame named '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> DataDictionary::FrameNames() const {
  return frame_order_;
}

RuleSet DataDictionary::AllRules() const {
  RuleSet out;
  for (const Rule& r : declared_.rules()) {
    Rule copy = r;
    copy.id = 0;
    out.Add(std::move(copy));
  }
  std::shared_ptr<const RuleSet> induced = induced_rules_snapshot();
  for (const Rule& r : induced->rules()) {
    Rule copy = r;
    copy.id = 0;
    out.Add(std::move(copy));
  }
  return out;
}

Status DataDictionary::ComputeActiveDomains(const Database& db) {
  active_domains_.clear();
  auto merge = [this](const std::string& name, const Value& lo,
                      const Value& hi) {
    for (AttributeDomain& d : active_domains_) {
      if (EqualsIgnoreCase(d.attribute, name)) {
        if (lo.ComparableWith(d.lo) && lo < d.lo) d.lo = lo;
        if (hi.ComparableWith(d.hi) && hi > d.hi) d.hi = hi;
        return;
      }
    }
    active_domains_.push_back(AttributeDomain{name, lo, hi});
  };
  for (const std::string& rel_name : db.RelationNames()) {
    IQS_ASSIGN_OR_RETURN(const Relation* rel, db.Get(rel_name));
    // Fold each column's [min, max] from the cached snapshot's zone maps
    // (DESIGN.md §14) instead of rescanning every row. ColumnMinMax
    // reproduces Relation::ActiveDomain's result exactly.
    IQS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> snapshot,
                         db.ColumnarSnapshot(rel_name));
    for (size_t i = 0; i < rel->schema().size(); ++i) {
      const std::string& attr = rel->schema().attribute(i).name;
      auto domain = snapshot->ColumnMinMax(i);
      if (!domain.ok()) continue;  // empty column
      merge(rel->name() + "." + attr, domain->first, domain->second);
      merge(attr, domain->first, domain->second);
    }
  }
  {
    // Fresh clip domains change what inference derives even with the
    // rule set untouched; retire cached answers built on the old ones.
    std::lock_guard<std::mutex> lock(induced_mu_);
    ++rule_epoch_;
  }
  return Status::Ok();
}

Result<RuleRelations> DataDictionary::ExportInducedRules() const {
  return EncodeRules(*induced_rules_snapshot());
}

Status DataDictionary::ImportInducedRules(const RuleRelations& relations) {
  IQS_ASSIGN_OR_RETURN(RuleSet decoded, DecodeRules(relations));
  // Re-attach isa readings for rules whose metadata lacks them (e.g. when
  // only the paper's two relations travelled with the data).
  RuleSet rebuilt;
  for (const Rule& r : decoded.rules()) {
    Rule copy = r;
    if (!copy.rhs.HasIsaReading()) {
      auto type_name =
          catalog_->hierarchy().FindByDerivation(copy.rhs.clause);
      if (type_name.ok()) {
        copy.rhs.isa_type = *type_name;
        std::string qualifier = copy.rhs.clause.Qualifier();
        copy.rhs.isa_variable =
            (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
      }
    }
    rebuilt.Add(std::move(copy));
  }
  SetInducedRules(std::move(rebuilt));
  return Status::Ok();
}

std::string DataDictionary::ToString() const {
  std::string out = "=== Intelligent Data Dictionary ===\n";
  out += "-- frames --\n";
  for (const std::string& name : frame_order_) {
    out += frames_.at(ToLower(name)).ToString();
  }
  out += "-- declared rules --\n" + declared_.ToString();
  out += "-- induced rules --\n" + induced_rules_snapshot()->ToString();
  return out;
}

}  // namespace iqs
