// TupleStore: the physical storage behind HierarchicalRelation.
//
// One arity-strided arena of node ids holds every tuple's item, with truth
// and alive bitmaps beside it. An open-addressed table of tuple ids, hashed
// and compared straight out of the arena, finds a tuple by its item; per
// attribute, a flat open-addressed node map with pooled posting lists
// drives the subsumption scans. The store holds raw slots only: schema
// validation, duplicate/contradiction policy, version stamps, and error
// messages stay in HierarchicalRelation.
//
// Contracts the kernels and the subsumption-graph cache depend on:
//  * Append allocates ids sequentially: the id of the n-th Append is n,
//    dead slots included. Ids are never reused.
//  * LiveIds and the four subsumption/binding scans return ascending ids.
//  * Copies preserve ids, dead slots, and iteration order exactly.

#ifndef HIREL_CORE_TUPLE_STORE_H_
#define HIREL_CORE_TUPLE_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "types/item.h"
#include "types/schema.h"

namespace hirel {

/// Index of a tuple within its relation. Stable until the tuple is erased;
/// erased ids are never reused.
using TupleId = uint32_t;

inline constexpr TupleId kInvalidTuple = 0xffffffffu;

/// A stored tuple read in place: a view of its item in the store's arena
/// plus its truth value. The view is valid until the next Append or Clear
/// of the store it came from.
struct TupleView {
  ItemView item;
  Truth truth = Truth::kPositive;
};

/// One line of a store's byte breakdown, for SHOW STORAGE.
struct StorageColumnInfo {
  std::string name;
  size_t bytes = 0;
};

/// Tuple container of one relation. Scan methods take the schema as an
/// argument so the store holds no back-pointer that copies would have to
/// fix up.
class TupleStore {
 public:
  explicit TupleStore(size_t arity) : arity_(arity), postings_(arity) {}

  /// Slots allocated so far (live + dead); the next Append returns this.
  size_t capacity() const { return capacity_; }

  /// Number of live tuples.
  size_t size() const { return num_alive_; }

  bool alive(TupleId id) const { return id < capacity_ && alive_.Test(id); }

  /// The item in slot `id`, which must be alive (or erased but not yet
  /// overwritten: erased slots keep their item). Valid until the next
  /// Append or Clear.
  ItemView ItemAt(TupleId id) const {
    return ItemView(arena_.data() + size_t{id} * arity_, arity_);
  }

  Truth TruthOf(TupleId id) const {
    return truth_.Test(id) ? Truth::kPositive : Truth::kNegative;
  }

  /// The tuple in slot `id`, which must be alive; same lifetime as ItemAt.
  TupleView tuple(TupleId id) const { return {ItemAt(id), TruthOf(id)}; }

  /// Appends a tuple the caller has verified is not already present.
  /// Returns the new id, which is always the previous capacity().
  TupleId Append(ItemView item, Truth truth);

  /// Replaces the truth value of a live tuple in place.
  void SetTruth(TupleId id, Truth truth);

  /// Marks a live tuple dead; its id is never reused.
  void Erase(TupleId id);

  /// Removes all tuples and resets capacity to empty.
  void Clear();

  /// The id of the live tuple storing exactly `item`, if any. Allocates
  /// nothing.
  std::optional<TupleId> Find(ItemView item) const;

  /// Ids of all live tuples, ascending.
  std::vector<TupleId> LiveIds() const { return alive_.ToVector(); }

  /// Ids of live tuples whose item subsumes `item`, ascending. The caller
  /// guarantees that item arity matches the (non-empty) schema.
  ///
  /// All four scans draw candidates from one attribute's inverted index
  /// and verify them in full. They pick the attribute whose candidate
  /// nodes (ancestors of item[i] here) carry the fewest postings, so a
  /// coarse leading attribute does not turn the scan into a full one.
  std::vector<TupleId> TuplesSubsuming(const Schema& schema,
                                       ItemView item) const;

  /// Ids of live tuples whose item is subsumed by `item`, ascending; same
  /// preconditions as TuplesSubsuming.
  std::vector<TupleId> TuplesSubsumedBy(const Schema& schema,
                                        ItemView item) const;

  /// Ids of live tuples whose item binds at or above `item`
  /// (ItemBindsBelow(tuple, item), preference edges included), ascending.
  /// Candidates come from Hierarchy::BindingAncestors; same preconditions
  /// as TuplesSubsuming.
  std::vector<TupleId> TuplesBindingAbove(const Schema& schema,
                                          ItemView item) const;

  /// Ids of live tuples whose item `item` binds at or above
  /// (ItemBindsBelow(item, tuple)), ascending; candidates come from
  /// Hierarchy::BindingDescendants.
  std::vector<TupleId> TuplesBindingBelow(const Schema& schema,
                                          ItemView item) const;

  /// In-memory footprint in bytes: every byte the store owns, at
  /// allocated capacity (arena, bitmaps, table slots, posting pools and
  /// headers), not just tuple payloads.
  size_t ApproxBytes() const;

  /// Per-column (and per-index) byte breakdown for SHOW STORAGE; sums to
  /// ApproxBytes().
  std::vector<StorageColumnInfo> ColumnInfo(const Schema& schema) const;

 private:
  /// One attribute's inverted index: component node -> ascending ids of
  /// the live tuples using that node there. An open-addressed table of
  /// three-word slots, sized by the distinct nodes in use; a node with one
  /// posting keeps it inline, longer lists live in one pooled id array as
  /// blocks of bit_ceil(count) ids.
  class Postings {
   public:
    /// The ids posted under `node`; valid until the next Add or Remove.
    std::span<const TupleId> Find(NodeId node) const;

    /// Posts `id`, which exceeds every id already posted under `node`.
    void Add(NodeId node, TupleId id);

    /// Removes `id`, which is posted under `node`.
    void Remove(NodeId node, TupleId id);

    /// Table slots plus pool capacity, in bytes.
    size_t Bytes() const;

   private:
    /// An empty slot has node == kInvalidNode. A slot whose count fell to
    /// zero keeps its node, so probes pass it and the node can return to
    /// it; rehashing drops it.
    struct Slot {
      NodeId node = kInvalidNode;
      uint32_t count = 0;
      uint32_t data = 0;  // the id when count == 1, else a pool offset
    };

    size_t Probe(NodeId node) const;
    void Rehash();
    void Compact();

    std::vector<Slot> slots_;
    size_t used_ = 0;  // slots with a node, including count == 0
    std::vector<TupleId> pool_;
    size_t pool_garbage_ = 0;  // pool ids no block owns
  };

  size_t HashAt(TupleId id) const;
  void IndexItem(TupleId id);
  void UnindexItem(TupleId id);

  /// The scan behind the four public ones: `nodes(i)` lists attribute i's
  /// candidate nodes, the attribute with the fewest postings supplies the
  /// candidates, and `keep(item)` verifies each one.
  template <typename NodesFn, typename KeepFn>
  std::vector<TupleId> ScanMostSelective(NodesFn nodes, KeepFn keep) const;

  size_t arity_;
  size_t capacity_ = 0;
  size_t num_alive_ = 0;

  // Slot id's item is arena_[id * arity_, (id + 1) * arity_). Erased slots
  // keep their components; ids are positions, so nothing moves.
  std::vector<NodeId> arena_;
  DynamicBitset alive_;
  DynamicBitset truth_;  // set = positive

  // Open-addressed (linear probing) set of live ids keyed by their arena
  // items; a power-of-two size or empty. kInvalidTuple marks an empty slot,
  // which ends a probe; kErasedSlot marks an erased entry, which does not.
  static constexpr TupleId kErasedSlot = kInvalidTuple - 1;
  std::vector<TupleId> item_slots_;
  size_t item_used_ = 0;  // live entries plus erased markers

  std::vector<Postings> postings_;
};

}  // namespace hirel

#endif  // HIREL_CORE_TUPLE_STORE_H_
