#include "core/tuple_store.h"

#include <algorithm>
#include <cstdint>

#include "common/str_util.h"
#include "hierarchy/hierarchy.h"

namespace hirel {

namespace {

/// Per-node bookkeeping overhead of one unordered_map entry (next pointer
/// plus cached hash), used by the byte-accounting approximations.
constexpr size_t kHashNodeOverhead = 2 * sizeof(void*);

}  // namespace

TupleId TupleStore::Append(Item item, Truth truth) {
  TupleId id = static_cast<TupleId>(tuples_.size());
  tuples_.push_back(HTuple{std::move(item), truth});
  alive_.Resize(tuples_.size());
  alive_.Set(id);
  ++num_alive_;
  item_index_.emplace(tuples_.back().item, id);
  for (size_t i = 0; i < component_index_.size(); ++i) {
    component_index_[i][tuples_.back().item[i]].push_back(id);
  }
  return id;
}

void TupleStore::Erase(TupleId id) {
  item_index_.erase(tuples_[id].item);
  for (size_t i = 0; i < component_index_.size(); ++i) {
    auto it = component_index_[i].find(tuples_[id].item[i]);
    if (it != component_index_[i].end()) {
      auto& bucket = it->second;
      bucket.erase(std::remove(bucket.begin(), bucket.end(), id),
                   bucket.end());
      if (bucket.empty()) component_index_[i].erase(it);
    }
  }
  alive_.Clear(id);
  --num_alive_;
}

void TupleStore::Clear() {
  tuples_.clear();
  alive_.Resize(0);
  item_index_.clear();
  for (auto& index : component_index_) index.clear();
  num_alive_ = 0;
}

std::optional<TupleId> TupleStore::Find(const Item& item) const {
  auto it = item_index_.find(item);
  if (it == item_index_.end()) return std::nullopt;
  return it->second;
}

template <typename NodesFn, typename KeepFn>
std::vector<TupleId> TupleStore::ScanMostSelective(size_t arity,
                                                   NodesFn nodes,
                                                   KeepFn keep) const {
  // The attribute whose candidate nodes carry the fewest postings. An only
  // attribute needs no count; otherwise an attribute stops counting as
  // soon as it can no longer beat the best so far.
  size_t best = 0;
  std::vector<NodeId> best_nodes = nodes(0);
  if (arity > 1) {
    auto postings = [&](size_t i, const std::vector<NodeId>& candidates,
                        size_t limit) {
      size_t total = 0;
      for (NodeId node : candidates) {
        auto it = component_index_[i].find(node);
        if (it != component_index_[i].end()) total += it->second.size();
        if (total >= limit) break;
      }
      return total;
    };
    size_t best_total = postings(0, best_nodes, SIZE_MAX);
    for (size_t i = 1; i < arity && best_total > 0; ++i) {
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
    auto it = component_index_[best].find(node);
    if (it == component_index_[best].end()) continue;
    for (TupleId id : it->second) {
      if (keep(tuples_[id].item)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TupleId> TupleStore::TuplesSubsuming(const Schema& schema,
                                                 const Item& item) const {
  return ScanMostSelective(
      schema.size(),
      [&](size_t i) { return schema.hierarchy(i)->dag().Ancestors(item[i]); },
      [&](const Item& other) { return ItemSubsumes(schema, other, item); });
}

std::vector<TupleId> TupleStore::TuplesSubsumedBy(const Schema& schema,
                                                  const Item& item) const {
  return ScanMostSelective(
      schema.size(),
      [&](size_t i) {
        return schema.hierarchy(i)->dag().Descendants(item[i]);
      },
      [&](const Item& other) { return ItemSubsumes(schema, item, other); });
}

std::vector<TupleId> TupleStore::TuplesBindingAbove(const Schema& schema,
                                                    const Item& item) const {
  return ScanMostSelective(
      schema.size(),
      [&](size_t i) { return schema.hierarchy(i)->BindingAncestors(item[i]); },
      [&](const Item& other) { return ItemBindsBelow(schema, other, item); });
}

std::vector<TupleId> TupleStore::TuplesBindingBelow(const Schema& schema,
                                                    const Item& item) const {
  return ScanMostSelective(
      schema.size(),
      [&](size_t i) {
        return schema.hierarchy(i)->BindingDescendants(item[i]);
      },
      [&](const Item& other) { return ItemBindsBelow(schema, item, other); });
}

size_t TupleStore::ApproxBytes() const {
  size_t bytes = 0;
  for (const StorageColumnInfo& info : ColumnInfo(Schema())) {
    bytes += info.bytes;
  }
  return bytes;
}

std::vector<StorageColumnInfo> TupleStore::ColumnInfo(
    const Schema& schema) const {
  const size_t arity = component_index_.size();
  std::vector<StorageColumnInfo> out;

  size_t payload = 0;
  for (TupleId id = 0; id < tuples_.size(); ++id) {
    if (!alive_.Test(id)) continue;
    payload += sizeof(HTuple) + tuples_[id].item.capacity() * sizeof(NodeId);
  }
  // Attribute columns share the row payload; the struct overhead beyond
  // the per-attribute node ids is reported as its own line.
  size_t per_attr = arity == 0 ? 0 : num_alive_ * sizeof(NodeId);
  for (size_t i = 0; i < arity; ++i) {
    std::string name =
        i < schema.size() ? schema.name(i) : StrCat("attr", i);
    out.push_back({std::move(name), per_attr});
  }
  size_t overhead = payload - per_attr * arity;
  out.push_back({"row-overhead", overhead});
  out.push_back({"alive-bitmap", alive_.num_words() * sizeof(uint64_t)});

  size_t item_index = item_index_.bucket_count() * sizeof(void*);
  item_index += item_index_.size() *
                (sizeof(Item) + arity * sizeof(NodeId) + sizeof(TupleId) +
                 kHashNodeOverhead);
  out.push_back({"item-index", item_index});

  size_t component_index = 0;
  for (const auto& index : component_index_) {
    component_index += index.bucket_count() * sizeof(void*);
    for (const auto& [node, ids] : index) {
      component_index += sizeof(NodeId) + sizeof(std::vector<TupleId>) +
                         ids.capacity() * sizeof(TupleId) + kHashNodeOverhead;
    }
  }
  out.push_back({"component-index", component_index});
  return out;
}

void TupleStore::ForEachLiveInChunk(
    size_t chunk, const std::function<void(TupleId)>& fn) const {
  size_t lo = chunk * kChunkTuples;
  size_t hi = std::min(tuples_.size(), lo + kChunkTuples);
  for (size_t id = lo; id < hi; ++id) {
    if (alive_.Test(id)) fn(static_cast<TupleId>(id));
  }
}

}  // namespace hirel
