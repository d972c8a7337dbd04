// HierarchicalRelation: a relation whose tuples are items (classes or
// instances per attribute) with truth values (Section 2).
//
// "Every tuple is an item with an associated truth value. The truth value
// of a tuple is a Boolean variable that is true for a positive (normal)
// tuple and false for a negated tuple."
//
// A relation stores at most one tuple per item: two identical tuples are
// duplicates (removed exactly as in a standard relational database), and a
// positive and a negative tuple on the same item would be a direct
// contradiction, rejected at insert time. Redundant (non-identical) tuples
// ARE retained — "redundant tuples are eliminated in our model only when
// explicitly requested by the user through a consolidate" (Section 3.2).
//
// Physical tuple layout is delegated to a TupleStore (core/tuple_store.h).
// The relation keeps the logical contract — schema validation,
// duplicate/contradiction policy, version stamps — while the store owns
// slots, liveness, and the scan indexes.

#ifndef HIREL_CORE_HIERARCHICAL_RELATION_H_
#define HIREL_CORE_HIERARCHICAL_RELATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/revision.h"
#include "common/status.h"
#include "core/mutation_journal.h"
#include "core/tuple_store.h"
#include "types/item.h"
#include "types/schema.h"

namespace hirel {

/// Which preemption semantics inference uses to order binding strength
/// (Appendix). Off-path is the paper's default throughout its examples.
enum class PreemptionMode : uint8_t {
  /// Tuple i binds more strongly than j iff there is a path from j to i.
  /// Equivalent to taking minimal asserted subsumers; requires hierarchies
  /// to hold only their transitive reduction.
  kOffPath = 0,
  /// Tuple i binds more strongly than j iff every hierarchy path from j to
  /// the item passes through i. Requires redundant edges to be retained.
  kOnPath = 1,
  /// No preemption: every asserted subsumer binds; any disagreement in
  /// truth values is a conflict.
  kNone = 2,
};

const char* PreemptionModeToString(PreemptionMode mode);

/// A named hierarchical relation over a schema.
///
/// Copies keep the version stamp verbatim: a copy of a base relation shares
/// its tuple ids and version, so caches keyed on (relation version,
/// hierarchy versions) stay valid across the copy. The mutation journal is
/// copied too, so a graph cached against the original can still be patched
/// up to the copy's subsequent mutations.
class HierarchicalRelation {
 public:
  HierarchicalRelation(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        store_(schema_.size()) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  /// Monotonic version stamp, drawn from the process-wide revision counter.
  /// Refreshed on every tuple mutation (insert, upsert, erase, clear), so
  /// two observations with an equal version are guaranteed to have seen the
  /// same tuple set. Consumers (the subsumption-graph cache) combine this
  /// with the schema hierarchies' versions to detect staleness.
  uint64_t version() const { return version_; }

  /// Number of live tuples.
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.size() == 0; }

  // ----- Mutation (unchecked w.r.t. the ambiguity constraint; see
  // integrity.h / transaction.h for guarded updates) ------------------------

  /// Inserts a tuple. Fails with:
  ///  * kInvalidArgument if the item arity mismatches the schema or a node
  ///    is not alive in its hierarchy;
  ///  * kAlreadyExists if an identical tuple is present (duplicate);
  ///  * kIntegrityViolation if the same item is present with the opposite
  ///    truth value (a direct contradiction: no binding order could ever
  ///    disambiguate it).
  Result<TupleId> Insert(ItemView item, Truth truth);

  /// Inserts, replacing any existing tuple on the same item.
  Result<TupleId> Upsert(ItemView item, Truth truth);

  /// Erases the tuple with the given id; kNotFound if dead/out of range.
  Status Erase(TupleId id);

  /// Erases the tuple on `item`; kNotFound if absent.
  Status EraseItem(ItemView item);

  /// Removes all tuples.
  void Clear();

  // ----- Lookup -------------------------------------------------------------

  bool alive(TupleId id) const { return store_.alive(id); }

  /// The tuple with id `id`; must be alive. Its item is a view into the
  /// store's arena, valid until the next insert or clear of this relation
  /// (erases and truth changes leave it in place).
  TupleView tuple(TupleId id) const { return store_.tuple(id); }

  /// The item of a live tuple (same lifetime as tuple()).
  ItemView ItemAt(TupleId id) const { return store_.ItemAt(id); }

  /// The truth value of a live tuple.
  Truth TruthOf(TupleId id) const { return store_.TruthOf(id); }

  /// Component `attr` of a live tuple.
  NodeId Component(TupleId id, size_t attr) const {
    return store_.ItemAt(id)[attr];
  }

  /// The id of the tuple asserted exactly on `item`, if any.
  std::optional<TupleId> FindItem(ItemView item) const;

  /// The truth value asserted exactly on `item`, if any (no inference).
  std::optional<Truth> TruthAt(ItemView item) const;

  /// Ids of all live tuples, ascending.
  std::vector<TupleId> TupleIds() const;

  /// Ids of live tuples whose item subsumes `item` (including an exact
  /// match). These are the nodes of the item's tuple-binding graph.
  /// Served by the store's inverted component index, in ascending id order.
  std::vector<TupleId> TuplesSubsuming(ItemView item) const;

  /// Ids of live tuples whose item is subsumed by `item`.
  std::vector<TupleId> TuplesSubsumedBy(ItemView item) const;

  /// Ids of live tuples whose item binds at or above `item` (ItemBindsBelow,
  /// preference edges included; an exact match counts), ascending.
  std::vector<TupleId> TuplesBindingAbove(ItemView item) const;

  /// Ids of live tuples whose item `item` binds at or above, ascending.
  std::vector<TupleId> TuplesBindingBelow(ItemView item) const;

  /// Total number of atomic items covered by positive tuples (an upper
  /// bound on the extension size, ignoring exceptions). Used by storage
  /// accounting in benchmarks.
  size_t CoveredAtomCount() const;

  /// Approximate in-memory footprint in bytes, including the store's
  /// indexes and bitmaps, not just tuple payloads.
  size_t ApproxBytes() const { return store_.ApproxBytes(); }

  /// Per-column byte breakdown for SHOW STORAGE.
  std::vector<StorageColumnInfo> ColumnInfo() const {
    return store_.ColumnInfo(schema_);
  }

  /// Recent-mutation journal, one record per version bump. Consumers pair a
  /// remembered version() with journal().Since(version) to learn exactly
  /// which tuples changed since, enabling in-place patches of derived
  /// structures (subsumption graphs, consolidation marks, DERIVE
  /// extensions) instead of full rebuilds.
  const MutationJournal& journal() const { return journal_; }

  /// Renders the relation as the paper's figures do: one "+"/"-" column
  /// followed by attribute values, classes prefixed with the universal
  /// quantifier "∀" (rendered as "ALL ").
  std::string ToString() const;

 private:
  Status ValidateItem(ItemView item) const;

  std::string name_;
  Schema schema_;
  uint64_t version_ = NextRevision();
  TupleStore store_;
  MutationJournal journal_;
};

}  // namespace hirel

#endif  // HIREL_CORE_HIERARCHICAL_RELATION_H_
