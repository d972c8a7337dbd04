#include "algebra/select.h"

#include "algebra/derivation.h"
#include "common/str_util.h"
#include "core/explicate.h"
#include "core/inference.h"
#include "obs/query_stats.h"

namespace hirel {

Result<HierarchicalRelation> SelectEquals(const HierarchicalRelation& relation,
                                          size_t attr, NodeId node,
                                          const InferenceOptions& options) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("select: attribute position ", attr, " out of range"));
  }
  const Hierarchy* h = schema.hierarchy(attr);
  if (!h->alive(node)) {
    return Status::InvalidArgument("select: node is not alive");
  }

  // Candidates: each tuple's item clamped into the sub-hierarchy at `node`
  // (via maximal common descendants, so tuples on classes that merely
  // overlap the selection class still contribute). A component outside the
  // overlap cone shares no descendant with `node`, so its MCD set is empty
  // and the tuple is skipped before its item is materialised.
  const DynamicBitset cone = h->OverlapCone(node);
  std::vector<Item> candidates;
  for (TupleId id : relation.TupleIds()) {
    if (!cone.Test(relation.Component(id, attr))) continue;
    ItemView item = relation.ItemAt(id);
    for (NodeId m : h->MaximalCommonDescendants(item[attr], node)) {
      Item clamped = item.ToItem();
      clamped[attr] = m;
      candidates.push_back(std::move(clamped));
    }
  }
  obs::ScopedAllocTracking tracked(
      candidates.size() * (sizeof(Item) + schema.size() * sizeof(NodeId)));

  return DeriveRelation(
      StrCat(relation.name(), "_select_", h->NodeName(node)), schema,
      std::move(candidates),
      [&](const Item& item) { return InferTruth(relation, item, options); });
}

Result<HierarchicalRelation> SelectEquals(const HierarchicalRelation& relation,
                                          std::string_view attr_name,
                                          std::string_view node_name,
                                          const InferenceOptions& options) {
  HIREL_ASSIGN_OR_RETURN(size_t attr, relation.schema().IndexOf(attr_name));
  HIREL_ASSIGN_OR_RETURN(NodeId node,
                         relation.schema().hierarchy(attr)->FindByName(
                             node_name));
  return SelectEquals(relation, attr, node, options);
}

Result<HierarchicalRelation> SelectWhere(
    const HierarchicalRelation& relation, size_t attr,
    const std::function<bool(const Value&)>& predicate,
    const InferenceOptions& options) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("select: attribute position ", attr, " out of range"));
  }
  ExplicateOptions explicate_options;
  explicate_options.inference = options;
  HIREL_ASSIGN_OR_RETURN(
      HierarchicalRelation exploded,
      Explicate(relation, {attr}, explicate_options));

  HierarchicalRelation result(StrCat(relation.name(), "_where"), schema);
  const Hierarchy* h = schema.hierarchy(attr);
  for (TupleId id : exploded.TupleIds()) {
    TupleView t = exploded.tuple(id);
    if (!predicate(h->InstanceValue(t.item[attr]))) continue;
    HIREL_RETURN_IF_ERROR(result.Insert(t.item, t.truth).status());
  }
  return result;
}

}  // namespace hirel
