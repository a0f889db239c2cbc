#include "relational/database.h"

#include <algorithm>

#include "common/string_util.h"

namespace iqs {

Result<Relation*> Database::CreateRelation(const std::string& name,
                                           Schema schema) {
  if (IsSysRelationName(name)) {
    return Status::InvalidArgument(
        "cannot create '" + name +
        "': the sys. schema is reserved for virtual catalog relations");
  }
  std::string key = ToLower(name);
  if (relations_.count(key) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto relation = std::make_unique<Relation>(name, std::move(schema));
  Relation* ptr = relation.get();
  relations_[key] = std::move(relation);
  creation_order_.push_back(name);
  BumpEpoch();
  return ptr;
}

Status Database::AddRelation(Relation relation) {
  if (IsSysRelationName(relation.name())) {
    return Status::InvalidArgument(
        "cannot add '" + relation.name() +
        "': the sys. schema is reserved for virtual catalog relations");
  }
  std::string key = ToLower(relation.name());
  if (relations_.count(key) > 0) {
    return Status::AlreadyExists("relation '" + relation.name() +
                                 "' already exists");
  }
  creation_order_.push_back(relation.name());
  relations_[key] = std::make_unique<Relation>(std::move(relation));
  BumpEpoch();
  return Status::Ok();
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return const_cast<const Relation*>(it->second.get());
}

Result<Relation*> Database::GetMutable(const std::string& name) {
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  // Handing out mutable access may change rows underneath any snapshot
  // index or cached answer; drop the indexes and retire the epoch.
  InvalidateIndexes(it->first);
  BumpEpoch();
  return it->second.get();
}

bool Database::Contains(const std::string& name) const {
  return relations_.count(ToLower(name)) > 0;
}

Status Database::Drop(const std::string& name) {
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  std::string stored_name = it->second->name();
  InvalidateIndexes(it->first);
  {
    // Readers holding the snapshot keep it; the database lets it go.
    std::lock_guard<std::mutex> lock(columnar_mu_);
    columnar_.erase(it->first);
  }
  relations_.erase(it);
  creation_order_.erase(
      std::remove_if(creation_order_.begin(), creation_order_.end(),
                     [&](const std::string& n) {
                       return EqualsIgnoreCase(n, stored_name);
                     }),
      creation_order_.end());
  BumpEpoch();
  return Status::Ok();
}

std::vector<std::string> Database::RelationNames() const {
  return creation_order_;
}

void Database::InvalidateIndexes(const std::string& lower_name) {
  auto it = indexes_.lower_bound({lower_name, ""});
  while (it != indexes_.end() && it->first.first == lower_name) {
    it = indexes_.erase(it);
  }
}

Status Database::CreateIndex(const std::string& relation,
                             const std::string& attribute) {
  auto it = relations_.find(ToLower(relation));
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  IQS_ASSIGN_OR_RETURN(SortedIndex index,
                       SortedIndex::Build(*it->second, attribute));
  indexes_.insert_or_assign({it->first, ToLower(attribute)},
                            std::move(index));
  return Status::Ok();
}

const SortedIndex* Database::GetIndex(const std::string& relation,
                                      const std::string& attribute) const {
  auto it = indexes_.find({ToLower(relation), ToLower(attribute)});
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::IndexedAttributes(
    const std::string& relation) const {
  std::vector<std::string> out;
  std::string key = ToLower(relation);
  for (const auto& [pair, index] : indexes_) {
    if (pair.first == key) out.push_back(index.attribute());
  }
  return out;
}

Result<std::shared_ptr<const ColumnarRelation>> Database::ColumnarSnapshot(
    const std::string& name) const {
  IQS_ASSIGN_OR_RETURN(const Relation* rel, Get(name));
  // Read the epoch before transposing: if a mutation lands mid-build it
  // bumps the epoch, so the entry cached under `at_epoch` is retired at
  // the next lookup rather than served for the new contents.
  uint64_t at_epoch = epoch();
  std::string key = ToLower(name);
  {
    std::lock_guard<std::mutex> lock(columnar_mu_);
    auto it = columnar_.find(key);
    if (it != columnar_.end() && it->second.epoch == at_epoch) {
      return it->second.snapshot;
    }
  }
  IQS_ASSIGN_OR_RETURN(ColumnarRelation transposed,
                       ColumnarRelation::Transpose(*rel));
  auto snapshot =
      std::make_shared<const ColumnarRelation>(std::move(transposed));
  std::lock_guard<std::mutex> lock(columnar_mu_);
  ColumnarEntry& entry = columnar_[key];
  if (entry.snapshot == nullptr || entry.epoch != at_epoch) {
    entry.epoch = at_epoch;
    entry.snapshot = std::move(snapshot);
  }
  return entry.snapshot;
}

void Database::RegisterVirtualProvider(
    const VirtualRelationProvider* provider) {
  for (const std::string& name : provider->RelationNames()) {
    std::string key = ToLower(name);
    if (virtual_relations_.count(key) == 0) virtual_order_.push_back(name);
    virtual_relations_[key] = {provider, name};
  }
}

bool Database::IsVirtual(const std::string& name) const {
  return virtual_relations_.count(ToLower(name)) > 0;
}

Result<Relation> Database::MaterializeVirtual(const std::string& name) const {
  auto it = virtual_relations_.find(ToLower(name));
  if (it == virtual_relations_.end()) {
    return Status::NotFound("no virtual relation named '" + name + "'");
  }
  return it->second.first->Materialize(it->second.second);
}

std::vector<std::string> Database::VirtualRelationNames() const {
  return virtual_order_;
}

}  // namespace iqs
