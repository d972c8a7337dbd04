#include "core/hierarchical_relation.h"

#include "common/str_util.h"

namespace hirel {

const char* PreemptionModeToString(PreemptionMode mode) {
  switch (mode) {
    case PreemptionMode::kOffPath:
      return "off-path";
    case PreemptionMode::kOnPath:
      return "on-path";
    case PreemptionMode::kNone:
      return "none";
  }
  return "unknown";
}

Status HierarchicalRelation::ValidateItem(ItemView item) const {
  if (item.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrCat("relation '", name_, "': item arity ", item.size(),
               " does not match schema arity ", schema_.size()));
  }
  for (size_t i = 0; i < item.size(); ++i) {
    if (!schema_.hierarchy(i)->alive(item[i])) {
      return Status::InvalidArgument(
          StrCat("relation '", name_, "': attribute '", schema_.name(i),
                 "' references dead node ", item[i]));
    }
  }
  return Status::OK();
}

Result<TupleId> HierarchicalRelation::Insert(ItemView item, Truth truth) {
  HIREL_RETURN_IF_ERROR(ValidateItem(item));
  std::optional<TupleId> existing = store_.Find(item);
  if (existing.has_value()) {
    if (store_.TruthOf(*existing) == truth) {
      return Status::AlreadyExists(
          StrCat("relation '", name_, "': duplicate tuple ",
                 ItemToString(schema_, item)));
    }
    return Status::IntegrityViolation(
        StrCat("relation '", name_, "': item ", ItemToString(schema_, item),
               " is already asserted with the opposite truth value"));
  }
  TupleId id = store_.Append(item, truth);
  version_ = NextRevision();
  journal_.Append({MutationJournal::Record::Kind::kInsert, truth, id, version_,
                   Item{}});
  return id;
}

Result<TupleId> HierarchicalRelation::Upsert(ItemView item, Truth truth) {
  HIREL_RETURN_IF_ERROR(ValidateItem(item));
  std::optional<TupleId> existing = store_.Find(item);
  if (existing.has_value()) {
    store_.SetTruth(*existing, truth);
    version_ = NextRevision();
    journal_.Append({MutationJournal::Record::Kind::kTruth, truth, *existing,
                     version_, Item{}});
    return *existing;
  }
  TupleId id = store_.Append(item, truth);
  version_ = NextRevision();
  journal_.Append({MutationJournal::Record::Kind::kInsert, truth, id, version_,
                   Item{}});
  return id;
}

Status HierarchicalRelation::Erase(TupleId id) {
  if (!store_.alive(id)) {
    return Status::NotFound(StrCat("relation '", name_, "': tuple ", id));
  }
  // Copy the item out of the arena; delta consumers need it to find the
  // erased tuple's former neighbours.
  TupleView erased = store_.tuple(id);
  Item item = erased.item.ToItem();
  store_.Erase(id);
  version_ = NextRevision();
  journal_.Append({MutationJournal::Record::Kind::kErase, erased.truth, id,
                   version_, std::move(item)});
  return Status::OK();
}

Status HierarchicalRelation::EraseItem(ItemView item) {
  std::optional<TupleId> existing = store_.Find(item);
  if (!existing.has_value()) {
    return Status::NotFound(StrCat("relation '", name_, "': no tuple on ",
                                   ItemToString(schema_, item)));
  }
  return Erase(*existing);
}

void HierarchicalRelation::Clear() {
  store_.Clear();
  version_ = NextRevision();
  // Clear resets the store's id space (ids are reused), so no delta may
  // span it: cut the journal instead of recording a per-tuple erase.
  journal_.Cut(version_);
}

std::optional<TupleId> HierarchicalRelation::FindItem(ItemView item) const {
  return store_.Find(item);
}

std::optional<Truth> HierarchicalRelation::TruthAt(ItemView item) const {
  std::optional<TupleId> existing = store_.Find(item);
  if (!existing.has_value()) return std::nullopt;
  return store_.TruthOf(*existing);
}

std::vector<TupleId> HierarchicalRelation::TupleIds() const {
  return store_.LiveIds();
}

std::vector<TupleId> HierarchicalRelation::TuplesSubsuming(
    ItemView item) const {
  if (store_.size() == 0 || item.size() != schema_.size()) return {};
  if (schema_.empty()) return TupleIds();  // the empty item subsumes itself
  return store_.TuplesSubsuming(schema_, item);
}

std::vector<TupleId> HierarchicalRelation::TuplesSubsumedBy(
    ItemView item) const {
  if (store_.size() == 0 || item.size() != schema_.size()) return {};
  if (schema_.empty()) return TupleIds();
  return store_.TuplesSubsumedBy(schema_, item);
}

std::vector<TupleId> HierarchicalRelation::TuplesBindingAbove(
    ItemView item) const {
  if (store_.size() == 0 || item.size() != schema_.size()) return {};
  if (schema_.empty()) return TupleIds();
  return store_.TuplesBindingAbove(schema_, item);
}

std::vector<TupleId> HierarchicalRelation::TuplesBindingBelow(
    ItemView item) const {
  if (store_.size() == 0 || item.size() != schema_.size()) return {};
  if (schema_.empty()) return TupleIds();
  return store_.TuplesBindingBelow(schema_, item);
}

size_t HierarchicalRelation::CoveredAtomCount() const {
  size_t count = 0;
  for (TupleId id : store_.LiveIds()) {
    TupleView t = store_.tuple(id);
    if (t.truth == Truth::kPositive) {
      count += ItemExtensionSize(schema_, t.item);
    }
  }
  return count;
}

std::string HierarchicalRelation::ToString() const {
  std::string out = StrCat(name_, schema_.ToString(), "\n");
  for (TupleId id : store_.LiveIds()) {
    TupleView t = store_.tuple(id);
    out += StrCat("  ", TruthToString(t.truth), " ");
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (i > 0) out += ", ";
      const Hierarchy* h = schema_.hierarchy(i);
      NodeId node = t.item[i];
      if (h->is_class(node)) out += "ALL ";
      out += h->NodeName(node);
    }
    out += "\n";
  }
  return out;
}

}  // namespace hirel
