#include "core/tuple_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "common/str_util.h"
#include "hierarchy/hierarchy.h"

namespace hirel {

namespace {

/// Finaliser that spreads every input bit over the low bits a
/// power-of-two table masks with (MurmurHash3's fmix64).
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

size_t HashItem(ItemView item) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId n : item) h = (h ^ n) * 0x100000001b3ULL;
  return Mix(h);
}

/// Table size that leaves `live` entries (plus the one being added) at
/// most half full. Tables grow once three quarters of their slots are
/// taken, so linear probes stay short.
size_t TableSizeFor(size_t live) {
  return std::max<size_t>(8, std::bit_ceil(2 * (live + 1)));
}

bool TableFull(size_t used, size_t slots) {
  return (used + 1) * 4 > slots * 3;
}

/// Pool ids a posting list of `count` > 1 ids occupies.
size_t BlockSize(uint32_t count) { return std::bit_ceil(count); }

}  // namespace

// ----- Postings ------------------------------------------------------------

size_t TupleStore::Postings::Probe(NodeId node) const {
  const size_t mask = slots_.size() - 1;
  size_t s = Mix(node) & mask;
  while (slots_[s].node != node && slots_[s].node != kInvalidNode) {
    s = (s + 1) & mask;
  }
  return s;
}

std::span<const TupleId> TupleStore::Postings::Find(NodeId node) const {
  if (slots_.empty()) return {};
  const Slot& slot = slots_[Probe(node)];
  if (slot.count <= 1) return {&slot.data, slot.count};
  return {pool_.data() + slot.data, slot.count};
}

void TupleStore::Postings::Add(NodeId node, TupleId id) {
  if (TableFull(used_, slots_.size())) Rehash();
  Slot& slot = slots_[Probe(node)];
  if (slot.node == kInvalidNode) {
    slot.node = node;
    ++used_;
  }
  if (slot.count == 0) {
    slot.data = id;
  } else if (slot.count == 1) {
    uint32_t offset = static_cast<uint32_t>(pool_.size());
    pool_.push_back(slot.data);
    pool_.push_back(id);
    slot.data = offset;
  } else {
    size_t block = BlockSize(slot.count);
    if (slot.count == block) {
      // Full block: move the list to a block twice the size at the end.
      size_t offset = pool_.size();
      pool_.resize(offset + 2 * block);
      std::copy_n(pool_.begin() + slot.data, block, pool_.begin() + offset);
      pool_garbage_ += block;
      slot.data = static_cast<uint32_t>(offset);
    }
    pool_[slot.data + slot.count] = id;
  }
  ++slot.count;
}

void TupleStore::Postings::Remove(NodeId node, TupleId id) {
  Slot& slot = slots_[Probe(node)];
  assert(slot.node == node && slot.count > 0);
  if (slot.count == 1) {
    slot.count = 0;  // the slot keeps its node; Rehash drops it
    return;
  }
  if (slot.count == 2) {
    TupleId first = pool_[slot.data];
    slot.data = first == id ? pool_[slot.data + 1] : first;
    pool_garbage_ += 2;
  } else {
    auto begin = pool_.begin() + slot.data;
    auto end = begin + slot.count;
    auto it = std::lower_bound(begin, end, id);
    assert(it != end && *it == id);
    std::copy(it + 1, end, it);
    // The block shrinks to the smaller count's size; its tail is garbage.
    pool_garbage_ += BlockSize(slot.count) - BlockSize(slot.count - 1);
  }
  --slot.count;
  if (pool_garbage_ * 2 > pool_.size()) Compact();
}

void TupleStore::Postings::Rehash() {
  size_t live = 0;
  for (const Slot& slot : slots_) live += slot.count > 0;
  std::vector<Slot> old(TableSizeFor(live));
  old.swap(slots_);
  used_ = 0;
  for (const Slot& slot : old) {
    if (slot.count == 0) continue;
    slots_[Probe(slot.node)] = slot;
    ++used_;
  }
}

void TupleStore::Postings::Compact() {
  std::vector<TupleId> pool;
  pool.reserve(pool_.size() - pool_garbage_);
  for (Slot& slot : slots_) {
    if (slot.count <= 1) continue;
    size_t offset = pool.size();
    pool.insert(pool.end(), pool_.begin() + slot.data,
                pool_.begin() + slot.data + BlockSize(slot.count));
    slot.data = static_cast<uint32_t>(offset);
  }
  pool_.swap(pool);
  pool_garbage_ = 0;
}

size_t TupleStore::Postings::Bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         pool_.capacity() * sizeof(TupleId);
}

// ----- Item table ----------------------------------------------------------

size_t TupleStore::HashAt(TupleId id) const { return HashItem(ItemAt(id)); }

void TupleStore::IndexItem(TupleId id) {
  if (TableFull(item_used_, item_slots_.size())) {
    std::vector<TupleId> old(TableSizeFor(num_alive_), kInvalidTuple);
    old.swap(item_slots_);
    item_used_ = 0;
    for (TupleId live : old) {
      if (live != kInvalidTuple && live != kErasedSlot) IndexItem(live);
    }
  }
  const size_t mask = item_slots_.size() - 1;
  for (size_t s = HashAt(id) & mask;; s = (s + 1) & mask) {
    // The item is absent (Append's precondition), so the first erased
    // marker on its probe path can take it.
    if (item_slots_[s] == kErasedSlot) {
      item_slots_[s] = id;
      return;
    }
    if (item_slots_[s] == kInvalidTuple) {
      item_slots_[s] = id;
      ++item_used_;
      return;
    }
  }
}

void TupleStore::UnindexItem(TupleId id) {
  const size_t mask = item_slots_.size() - 1;
  size_t s = HashAt(id) & mask;
  while (item_slots_[s] != id) s = (s + 1) & mask;
  item_slots_[s] = kErasedSlot;
}

std::optional<TupleId> TupleStore::Find(ItemView item) const {
  if (item_slots_.empty() || item.size() != arity_) return std::nullopt;
  const size_t mask = item_slots_.size() - 1;
  for (size_t s = HashItem(item) & mask;; s = (s + 1) & mask) {
    TupleId id = item_slots_[s];
    if (id == kInvalidTuple) return std::nullopt;
    if (id != kErasedSlot && ItemAt(id) == item) return id;
  }
}

// ----- Mutation ------------------------------------------------------------

TupleId TupleStore::Append(ItemView item, Truth truth) {
  assert(item.size() == arity_);
  // A view of an erased slot of this very arena would dangle once the
  // arena grows; copy it out first.
  std::less<const NodeId*> before;
  if (arity_ > 0 && !before(item.data(), arena_.data()) &&
      before(item.data(), arena_.data() + arena_.size())) {
    return Append(item.ToItem(), truth);
  }
  TupleId id = static_cast<TupleId>(capacity_++);
  arena_.insert(arena_.end(), item.begin(), item.end());
  alive_.Resize(capacity_);
  alive_.Set(id);
  truth_.Resize(capacity_);
  if (truth == Truth::kPositive) truth_.Set(id);
  ++num_alive_;
  IndexItem(id);
  for (size_t i = 0; i < arity_; ++i) postings_[i].Add(item[i], id);
  return id;
}

void TupleStore::SetTruth(TupleId id, Truth truth) {
  if (truth == Truth::kPositive) {
    truth_.Set(id);
  } else {
    truth_.Clear(id);
  }
}

void TupleStore::Erase(TupleId id) {
  UnindexItem(id);
  ItemView item = ItemAt(id);
  for (size_t i = 0; i < arity_; ++i) postings_[i].Remove(item[i], id);
  alive_.Clear(id);
  --num_alive_;
}

void TupleStore::Clear() { *this = TupleStore(arity_); }

// ----- Scans ---------------------------------------------------------------

template <typename NodesFn, typename KeepFn>
std::vector<TupleId> TupleStore::ScanMostSelective(NodesFn nodes,
                                                   KeepFn keep) const {
  // The attribute whose candidate nodes carry the fewest postings. An only
  // attribute needs no count; otherwise an attribute stops counting as
  // soon as it can no longer beat the best so far.
  size_t best = 0;
  std::vector<NodeId> best_nodes = nodes(0);
  if (arity_ > 1) {
    auto postings = [&](size_t i, const std::vector<NodeId>& candidates,
                        size_t limit) {
      size_t total = 0;
      for (NodeId node : candidates) {
        total += postings_[i].Find(node).size();
        if (total >= limit) break;
      }
      return total;
    };
    size_t best_total = postings(0, best_nodes, SIZE_MAX);
    for (size_t i = 1; i < arity_ && best_total > 0; ++i) {
      std::vector<NodeId> candidates = nodes(i);
      size_t total = postings(i, candidates, best_total);
      if (total < best_total) {
        best = i;
        best_total = total;
        best_nodes = std::move(candidates);
      }
    }
  }
  // Each live tuple sits in exactly one posting list per attribute, so the
  // candidates are distinct; sorting restores ascending id order.
  std::vector<TupleId> out;
  for (NodeId node : best_nodes) {
    for (TupleId id : postings_[best].Find(node)) {
      if (keep(ItemAt(id))) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TupleId> TupleStore::TuplesSubsuming(const Schema& schema,
                                                 ItemView item) const {
  return ScanMostSelective(
      [&](size_t i) { return schema.hierarchy(i)->dag().Ancestors(item[i]); },
      [&](ItemView other) { return ItemSubsumes(schema, other, item); });
}

std::vector<TupleId> TupleStore::TuplesSubsumedBy(const Schema& schema,
                                                  ItemView item) const {
  return ScanMostSelective(
      [&](size_t i) {
        return schema.hierarchy(i)->dag().Descendants(item[i]);
      },
      [&](ItemView other) { return ItemSubsumes(schema, item, other); });
}

std::vector<TupleId> TupleStore::TuplesBindingAbove(const Schema& schema,
                                                    ItemView item) const {
  return ScanMostSelective(
      [&](size_t i) { return schema.hierarchy(i)->BindingAncestors(item[i]); },
      [&](ItemView other) { return ItemBindsBelow(schema, other, item); });
}

std::vector<TupleId> TupleStore::TuplesBindingBelow(const Schema& schema,
                                                    ItemView item) const {
  return ScanMostSelective(
      [&](size_t i) {
        return schema.hierarchy(i)->BindingDescendants(item[i]);
      },
      [&](ItemView other) { return ItemBindsBelow(schema, item, other); });
}

// ----- Accounting ----------------------------------------------------------

size_t TupleStore::ApproxBytes() const {
  size_t bytes = 0;
  for (const StorageColumnInfo& info : ColumnInfo(Schema())) {
    bytes += info.bytes;
  }
  return bytes;
}

std::vector<StorageColumnInfo> TupleStore::ColumnInfo(
    const Schema& schema) const {
  std::vector<StorageColumnInfo> out;
  // Each attribute owns one arena word per slot, live or dead; the arena's
  // unused capacity is its own line.
  for (size_t i = 0; i < arity_; ++i) {
    std::string name =
        i < schema.size() ? schema.name(i) : StrCat("attr", i);
    out.push_back({std::move(name), capacity_ * sizeof(NodeId)});
  }
  out.push_back(
      {"arena-spare", (arena_.capacity() - arena_.size()) * sizeof(NodeId)});
  out.push_back({"alive-bitmap", alive_.Bytes()});
  out.push_back({"truth-bitmap", truth_.Bytes()});
  out.push_back({"item-index", item_slots_.capacity() * sizeof(TupleId)});
  size_t component_index = 0;
  for (const Postings& p : postings_) component_index += p.Bytes();
  out.push_back({"component-index", component_index});
  out.push_back({"headers", sizeof(TupleStore) +
                                postings_.capacity() * sizeof(Postings)});
  return out;
}

}  // namespace hirel
