#ifndef IQS_RELATIONAL_DATABASE_H_
#define IQS_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column_store.h"
#include "relational/index.h"
#include "relational/relation.h"
#include "relational/virtual_relation.h"

namespace iqs {

// The extensional database (EDB, paper §4): a catalog of named relations.
// Relation names are case-insensitive; the creation spelling is preserved.
class Database {
 public:
  Database() = default;

  // Databases own their relations and are not copyable. Moves carry the
  // epoch along (spelled out because std::atomic has no move ops).
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&& other) noexcept
      : relations_(std::move(other.relations_)),
        creation_order_(std::move(other.creation_order_)),
        indexes_(std::move(other.indexes_)),
        virtual_relations_(std::move(other.virtual_relations_)),
        virtual_order_(std::move(other.virtual_order_)),
        columnar_(std::move(other.columnar_)),
        epoch_(other.epoch_.load(std::memory_order_relaxed)) {}
  Database& operator=(Database&& other) noexcept {
    relations_ = std::move(other.relations_);
    creation_order_ = std::move(other.creation_order_);
    indexes_ = std::move(other.indexes_);
    virtual_relations_ = std::move(other.virtual_relations_);
    virtual_order_ = std::move(other.virtual_order_);
    columnar_ = std::move(other.columnar_);
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  // Creates an empty relation; AlreadyExists if the name is taken.
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);

  // Adds a fully built relation under its own name.
  Status AddRelation(Relation relation);

  Result<const Relation*> Get(const std::string& name) const;
  Result<Relation*> GetMutable(const std::string& name);
  bool Contains(const std::string& name) const;

  Status Drop(const std::string& name);

  // Names in creation order.
  std::vector<std::string> RelationNames() const;

  size_t size() const { return relations_.size(); }

  // Data epoch: bumped on every mutation entry point (CreateRelation,
  // AddRelation, GetMutable, Drop). Versioned caches embed it in their
  // keys, so any write — even one that ends up a no-op — retires every
  // cached answer derived from the old contents (paper-correct, if
  // conservative). Monotone; never reset.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  // ---- secondary indexes ---------------------------------------------

  // Builds (or rebuilds) a sorted index over `attribute` of `relation`.
  // The SQL executor uses registered indexes in place of the scan of a
  // FROM entry that a point/range conjunct restricts.
  Status CreateIndex(const std::string& relation,
                     const std::string& attribute);

  // The index for (relation, attribute), or null when none is
  // registered. Indexes are snapshots: GetMutable and Drop invalidate
  // every index of the touched relation (conservative but safe).
  const SortedIndex* GetIndex(const std::string& relation,
                              const std::string& attribute) const;

  // Names of indexed attributes of `relation`.
  std::vector<std::string> IndexedAttributes(
      const std::string& relation) const;

  // ---- columnar snapshots --------------------------------------------

  // The columnar snapshot of the named base relation (DESIGN.md §14),
  // built on first use and cached keyed by the data epoch — any
  // mutation retires it the same way it retires cached answers. The
  // returned shared_ptr stays valid across later mutations and Drop (it
  // is a snapshot, not a view); Drop frees the cached one. NotFound for
  // unknown (including virtual) names; virtual relations are
  // materialized fresh per statement and never reach this cache.
  Result<std::shared_ptr<const ColumnarRelation>> ColumnarSnapshot(
      const std::string& name) const;

  // ---- virtual relations (sys.* catalog) -----------------------------

  // Registers a provider of read-only virtual relations. The provider
  // must outlive the database (IqsSystem owns both). Later registrations
  // win on name collisions, though providers are expected to serve
  // disjoint names.
  void RegisterVirtualProvider(const VirtualRelationProvider* provider);

  // True when `name` is served by a registered virtual provider.
  bool IsVirtual(const std::string& name) const;

  // Materializes a fresh snapshot of the named virtual relation;
  // NotFound when no provider serves it. Virtual relations are never
  // stored: every call rebuilds from live state.
  Result<Relation> MaterializeVirtual(const std::string& name) const;

  // Dotted names of all registered virtual relations, in registration
  // order (providers first, then their declared order).
  std::vector<std::string> VirtualRelationNames() const;

 private:
  void InvalidateIndexes(const std::string& lower_name);

  // Keyed by lower-cased name.
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::vector<std::string> creation_order_;
  // Keyed by (lower relation, lower attribute).
  std::map<std::pair<std::string, std::string>, SortedIndex> indexes_;
  // Lower-cased virtual name -> (provider, registered spelling).
  std::map<std::string,
           std::pair<const VirtualRelationProvider*, std::string>>
      virtual_relations_;
  std::vector<std::string> virtual_order_;
  // Lower-cased name -> columnar snapshot and the epoch it was built
  // at. Lazily filled by ColumnarSnapshot (hence mutable); the mutex
  // only guards the map, never the build.
  struct ColumnarEntry {
    uint64_t epoch = 0;
    std::shared_ptr<const ColumnarRelation> snapshot;
  };
  mutable std::mutex columnar_mu_;
  mutable std::map<std::string, ColumnarEntry> columnar_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace iqs

#endif  // IQS_RELATIONAL_DATABASE_H_
