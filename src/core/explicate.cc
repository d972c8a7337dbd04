#include "core/explicate.h"

#include <algorithm>

#include "common/str_util.h"
#include "core/subsumption.h"

namespace hirel {

Result<HierarchicalRelation> Explicate(const HierarchicalRelation& relation,
                                       const std::vector<size_t>& attrs,
                                       const ExplicateOptions& options) {
  const Schema& schema = relation.schema();

  std::vector<size_t> positions = attrs;
  if (positions.empty()) {
    positions.resize(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) positions[i] = i;
  }
  std::vector<bool> explicated(schema.size(), false);
  for (size_t p : positions) {
    if (p >= schema.size()) {
      return Status::InvalidArgument(
          StrCat("explicate: attribute position ", p, " out of range"));
    }
    explicated[p] = true;
  }
  bool full = true;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!explicated[i]) full = false;
  }

  HierarchicalRelation result(StrCat(relation.name(), "_explicated"), schema);

  // Reverse topological order: most specific tuples first, so the first
  // tuple to claim an item wins, which is exactly the override semantics.
  SubsumptionGraph local;
  if (options.graph == nullptr) {
    local = BuildSubsumptionGraph(relation);
  }
  const SubsumptionGraph& graph =
      options.graph != nullptr ? *options.graph : local;

  size_t n = graph.nodes.size();
  auto merge_item = [&](const Item& current, Truth truth) -> Status {
    if (result.FindItem(current).has_value()) return Status::OK();
    if (result.size() >= options.max_result_tuples) {
      return Status::ResourceExhausted(
          StrCat("explication of '", relation.name(), "' exceeds ",
                 options.max_result_tuples, " tuples"));
    }
    return result.Insert(current, truth).status();
  };

  // Stream each tuple's enumeration straight into the result, without
  // materialising the expansion.
  for (size_t r = 0; r < n; ++r) {
    TupleView t = relation.tuple(graph.nodes[n - 1 - r]);
    std::vector<std::vector<NodeId>> choices(schema.size());
    bool empty_class = false;
    for (size_t i = 0; i < schema.size(); ++i) {
      if (explicated[i] && schema.hierarchy(i)->is_class(t.item[i])) {
        choices[i] = schema.hierarchy(i)->AtomsUnder(t.item[i]);
        if (choices[i].empty()) {
          empty_class = true;  // a class with no instances denotes nothing
          break;
        }
      } else {
        choices[i] = {t.item[i]};
      }
    }
    if (empty_class) continue;

    Item current(schema.size());
    std::vector<size_t> idx(schema.size(), 0);
    while (true) {
      for (size_t i = 0; i < schema.size(); ++i) {
        current[i] = choices[i][idx[i]];
      }
      HIREL_RETURN_IF_ERROR(merge_item(current, t.truth));
      size_t k = schema.size();
      bool done = false;
      while (k > 0) {
        --k;
        if (++idx[k] < choices[k].size()) break;
        idx[k] = 0;
        if (k == 0) done = true;
      }
      if (done) break;
    }
  }

  if (full && options.consolidate_after) {
    // After full explication the subsumption graph has no edges, so every
    // negated tuple hangs directly off the universal negated tuple and is
    // redundant; dropping them is the following consolidate.
    std::vector<TupleId> negatives;
    for (TupleId id : result.TupleIds()) {
      if (result.tuple(id).truth == Truth::kNegative) negatives.push_back(id);
    }
    for (TupleId id : negatives) {
      HIREL_RETURN_IF_ERROR(result.Erase(id));
    }
  }
  return result;
}

Result<std::vector<Item>> Extension(const HierarchicalRelation& relation,
                                    const ExplicateOptions& options) {
  ExplicateOptions opts = options;
  opts.consolidate_after = true;
  HIREL_ASSIGN_OR_RETURN(HierarchicalRelation flat,
                         Explicate(relation, {}, opts));
  std::vector<Item> items;
  items.reserve(flat.size());
  for (TupleId id : flat.TupleIds()) {
    items.push_back(flat.ItemAt(id).ToItem());
  }
  std::sort(items.begin(), items.end());
  return items;
}

}  // namespace hirel
