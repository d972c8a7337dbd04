// TupleStore: the physical storage behind HierarchicalRelation.
//
// One HTuple per slot, an item hash index, and a per-attribute inverted
// component index driving the subsumption scans. The store holds raw slots
// only: schema validation, duplicate/contradiction policy, version stamps,
// and error messages stay in HierarchicalRelation.
//
// Contracts the parallel kernels and the subsumption-graph cache depend on:
//  * Append allocates ids sequentially: the id of the n-th Append is n,
//    dead slots included. Ids are never reused.
//  * LiveIds and the four subsumption/binding scans return ascending ids,
//    so results are byte-identical across thread counts.
//  * Copies preserve ids, dead slots, and iteration order exactly.
//  * Chunk boundaries are a pure function of capacity() and kChunkTuples,
//    never of thread count, so chunked ParallelFor scans are deterministic.

#ifndef HIREL_CORE_TUPLE_STORE_H_
#define HIREL_CORE_TUPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "types/item.h"
#include "types/schema.h"

namespace hirel {

/// Index of a tuple within its relation. Stable until the tuple is erased;
/// erased ids are never reused.
using TupleId = uint32_t;

inline constexpr TupleId kInvalidTuple = 0xffffffffu;

/// A stored tuple: an item plus its truth value.
struct HTuple {
  Item item;
  Truth truth = Truth::kPositive;

  friend bool operator==(const HTuple& a, const HTuple& b) {
    return a.truth == b.truth && a.item == b.item;
  }
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
  /// Tuples per scan chunk. Chunk c covers ids
  /// [c * kChunkTuples, min(capacity, (c + 1) * kChunkTuples)).
  static constexpr size_t kChunkTuples = 1024;

  explicit TupleStore(size_t arity) : component_index_(arity) {}

  /// Slots allocated so far (live + dead); the next Append returns this.
  size_t capacity() const { return tuples_.size(); }

  /// Number of live tuples.
  size_t size() const { return num_alive_; }

  bool alive(TupleId id) const {
    return id < tuples_.size() && alive_.Test(id);
  }

  /// The tuple in slot `id`, which must be alive. The reference is valid
  /// until the next Append or Clear.
  const HTuple& tuple(TupleId id) const { return tuples_[id]; }

  /// Appends a tuple the caller has verified is not already present.
  /// Returns the new id, which is always the previous capacity().
  TupleId Append(Item item, Truth truth);

  /// Replaces the truth value of a live tuple in place.
  void SetTruth(TupleId id, Truth truth) { tuples_[id].truth = truth; }

  /// Marks a live tuple dead; its id is never reused.
  void Erase(TupleId id);

  /// Removes all tuples and resets capacity to empty.
  void Clear();

  /// The id of the live tuple storing exactly `item`, if any.
  std::optional<TupleId> Find(const Item& item) const;

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
                                       const Item& item) const;

  /// Ids of live tuples whose item is subsumed by `item`, ascending; same
  /// preconditions as TuplesSubsuming.
  std::vector<TupleId> TuplesSubsumedBy(const Schema& schema,
                                        const Item& item) const;

  /// Ids of live tuples whose item binds at or above `item`
  /// (ItemBindsBelow(tuple, item), preference edges included), ascending.
  /// Candidates come from Hierarchy::BindingAncestors; same preconditions
  /// as TuplesSubsuming.
  std::vector<TupleId> TuplesBindingAbove(const Schema& schema,
                                          const Item& item) const;

  /// Ids of live tuples whose item `item` binds at or above
  /// (ItemBindsBelow(item, tuple)), ascending; candidates come from
  /// Hierarchy::BindingDescendants.
  std::vector<TupleId> TuplesBindingBelow(const Schema& schema,
                                          const Item& item) const;

  /// Approximate in-memory footprint in bytes, including indexes and
  /// bitmaps — everything the store owns, not just tuple payloads.
  size_t ApproxBytes() const;

  /// Per-column (and per-index) byte breakdown for SHOW STORAGE.
  std::vector<StorageColumnInfo> ColumnInfo(const Schema& schema) const;

  /// Number of fixed-size scan chunks covering [0, capacity()).
  size_t num_chunks() const {
    return (capacity() + kChunkTuples - 1) / kChunkTuples;
  }

  /// Invokes `fn` for every live id in chunk `chunk`, ascending.
  void ForEachLiveInChunk(size_t chunk,
                          const std::function<void(TupleId)>& fn) const;

 private:
  std::vector<HTuple> tuples_;
  DynamicBitset alive_;
  size_t num_alive_ = 0;

  std::unordered_map<Item, TupleId, ItemHash> item_index_;

  /// The scan behind the four public ones: `nodes(i)` lists attribute i's
  /// candidate nodes, the attribute with the fewest postings supplies the
  /// candidates, and `keep(item)` verifies each one.
  template <typename NodesFn, typename KeepFn>
  std::vector<TupleId> ScanMostSelective(size_t arity, NodesFn nodes,
                                         KeepFn keep) const;

  // Inverted index: per attribute, component node -> live tuple ids using
  // that node at that position. Drives the subsumption and binding scans
  // behind every binding computation and the subsumption graph.
  std::vector<std::unordered_map<NodeId, std::vector<TupleId>>>
      component_index_;
};

}  // namespace hirel

#endif  // HIREL_CORE_TUPLE_STORE_H_
