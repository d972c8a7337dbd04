#include "core/tuple_store.h"

#include <algorithm>

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

std::vector<TupleId> TupleStore::TuplesSubsuming(const Schema& schema,
                                                 const Item& item) const {
  // Candidates: tuples whose first component is an ancestor of item[0]
  // (subsumption on attribute 0 is necessary). Verified in full below; the
  // result comes out in ascending id order for determinism.
  std::vector<TupleId> out;
  const Dag& dag = schema.hierarchy(0)->dag();
  for (NodeId ancestor : dag.Ancestors(item[0])) {
    auto it = component_index_[0].find(ancestor);
    if (it == component_index_[0].end()) continue;
    for (TupleId id : it->second) {
      if (ItemSubsumes(schema, tuples_[id].item, item)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TupleId> TupleStore::TuplesSubsumedBy(const Schema& schema,
                                                  const Item& item) const {
  std::vector<TupleId> out;
  const Dag& dag = schema.hierarchy(0)->dag();
  for (NodeId descendant : dag.Descendants(item[0])) {
    auto it = component_index_[0].find(descendant);
    if (it == component_index_[0].end()) continue;
    for (TupleId id : it->second) {
      if (ItemSubsumes(schema, item, tuples_[id].item)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
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
