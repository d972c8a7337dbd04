#include "core/conflict.h"

#include <algorithm>
#include <unordered_set>

#include "common/str_util.h"

namespace hirel {

namespace {

/// True iff the binders of `site` mix truth values.
Result<bool> SiteConflicted(const HierarchicalRelation& relation,
                            ItemView site, const InferenceOptions& options,
                            std::vector<TupleId>* binders_out) {
  HIREL_ASSIGN_OR_RETURN(Binding binding,
                         ComputeBinding(relation, site, options));
  if (binding.self_bound || binding.binders.size() < 2) return false;
  Truth first = relation.tuple(binding.binders.front()).truth;
  for (TupleId id : binding.binders) {
    if (relation.tuple(id).truth != first) {
      if (binders_out != nullptr) *binders_out = binding.binders;
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<ConflictSite>> FindConflicts(
    const HierarchicalRelation& relation, const InferenceOptions& options,
    size_t max_sites) {
  const Schema& schema = relation.schema();
  std::vector<TupleId> ids = relation.TupleIds();
  std::unordered_set<Item, ItemHash> probed;
  std::vector<ConflictSite> sites;

  for (size_t i = 0; i < ids.size() && sites.size() < max_sites; ++i) {
    TupleView a = relation.tuple(ids[i]);
    for (size_t j = i + 1; j < ids.size() && sites.size() < max_sites; ++j) {
      TupleView b = relation.tuple(ids[j]);
      if (a.truth == b.truth) continue;
      if (ItemBindsBelow(schema, a.item, b.item) ||
          ItemBindsBelow(schema, b.item, a.item)) {
        continue;  // comparable in the binding order: one preempts the other
      }
      for (const Item& site :
           ItemMaximalCommonDescendants(schema, a.item, b.item)) {
        if (!probed.insert(site).second) continue;
        if (relation.FindItem(site).has_value()) continue;
        std::vector<TupleId> binders;
        HIREL_ASSIGN_OR_RETURN(
            bool conflicted, SiteConflicted(relation, site, options, &binders));
        if (conflicted) {
          sites.push_back(ConflictSite{site, std::move(binders)});
          if (sites.size() >= max_sites) break;
        }
      }
    }
  }
  return sites;
}

Result<std::vector<ConflictSite>> FindConflictsExhaustive(
    const HierarchicalRelation& relation, const InferenceOptions& options,
    size_t max_sites, size_t max_items) {
  const Schema& schema = relation.schema();

  // Per-attribute candidate nodes: every node subsumed by some asserted
  // component (items outside every tuple's downset have no binders and
  // cannot conflict).
  std::vector<std::vector<NodeId>> candidates(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    std::unordered_set<NodeId> seen;
    for (TupleId id : relation.TupleIds()) {
      NodeId component = relation.tuple(id).item[i];
      for (NodeId d : schema.hierarchy(i)->dag().Descendants(component)) {
        seen.insert(d);
      }
    }
    candidates[i].assign(seen.begin(), seen.end());
    std::sort(candidates[i].begin(), candidates[i].end());
    if (candidates[i].empty()) return std::vector<ConflictSite>{};
  }

  size_t total = 1;
  for (const auto& c : candidates) {
    if (total > max_items / c.size()) {
      return Status::ResourceExhausted(
          StrCat("exhaustive conflict scan of '", relation.name(),
                 "' exceeds ", max_items, " candidate items"));
    }
    total *= c.size();
  }

  std::vector<ConflictSite> sites;
  Item current(schema.size());
  std::vector<size_t> idx(schema.size(), 0);
  while (sites.size() < max_sites) {
    for (size_t i = 0; i < schema.size(); ++i) {
      current[i] = candidates[i][idx[i]];
    }
    if (!relation.FindItem(current).has_value()) {
      std::vector<TupleId> binders;
      HIREL_ASSIGN_OR_RETURN(
          bool conflicted,
          SiteConflicted(relation, current, options, &binders));
      if (conflicted) {
        sites.push_back(ConflictSite{current, std::move(binders)});
      }
    }
    size_t k = schema.size();
    bool done = false;
    while (k > 0) {
      --k;
      if (++idx[k] < candidates[k].size()) break;
      idx[k] = 0;
      if (k == 0) done = true;
    }
    if (done) break;
  }
  return sites;
}

Status CheckAmbiguity(const HierarchicalRelation& relation,
                      const InferenceOptions& options) {
  std::vector<ConflictSite> sites;
  if (options.preemption == PreemptionMode::kOffPath) {
    HIREL_ASSIGN_OR_RETURN(sites, FindConflicts(relation, options, 1));
  } else {
    HIREL_ASSIGN_OR_RETURN(sites,
                           FindConflictsExhaustive(relation, options, 1));
  }
  if (sites.empty()) return Status::OK();
  const ConflictSite& site = sites.front();
  std::string detail;
  for (TupleId id : site.binders) {
    detail += StrCat(" [", TruthToString(relation.tuple(id).truth), " ",
                     ItemToString(relation.schema(), relation.tuple(id).item),
                     "]");
  }
  return Status::Conflict(
      StrCat("relation '", relation.name(), "' violates the ambiguity ",
             "constraint at item ",
             ItemToString(relation.schema(), site.item),
             "; conflicting strongest binders:", detail));
}

Result<std::vector<Item>> CompleteConflictResolutionSet(const Schema& schema,
                                                        ItemView a,
                                                        ItemView b,
                                                        size_t max_items) {
  // Per attribute: all common descendants of the two components.
  std::vector<std::vector<NodeId>> per_attr(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    const Dag& dag = schema.hierarchy(i)->dag();
    std::vector<NodeId> da = dag.Descendants(a[i]);
    std::vector<bool> in_a(dag.capacity(), false);
    for (NodeId n : da) in_a[n] = true;
    for (NodeId n : dag.Descendants(b[i])) {
      if (in_a[n]) per_attr[i].push_back(n);
    }
    if (per_attr[i].empty()) return std::vector<Item>{};
    std::sort(per_attr[i].begin(), per_attr[i].end());
  }
  size_t total = 1;
  for (const auto& c : per_attr) {
    if (total > max_items / c.size()) {
      return Status::ResourceExhausted(
          StrCat("complete conflict-resolution set exceeds ", max_items,
                 " items"));
    }
    total *= c.size();
  }
  std::vector<Item> out;
  out.reserve(total);
  Item current(schema.size());
  std::vector<size_t> idx(schema.size(), 0);
  while (true) {
    for (size_t i = 0; i < schema.size(); ++i) {
      current[i] = per_attr[i][idx[i]];
    }
    out.push_back(current);
    size_t k = schema.size();
    bool done = false;
    while (k > 0) {
      --k;
      if (++idx[k] < per_attr[k].size()) break;
      idx[k] = 0;
      if (k == 0) done = true;
    }
    if (done) break;
  }
  return out;
}

std::vector<Item> MinimalConflictResolutionSet(const Schema& schema,
                                               ItemView a, ItemView b) {
  return ItemMaximalCommonDescendants(schema, a, b);
}

Status ResolveConflict(HierarchicalRelation& relation, ItemView a,
                       ItemView b, Truth truth) {
  for (const Item& item :
       MinimalConflictResolutionSet(relation.schema(), a, b)) {
    if (relation.FindItem(item).has_value()) continue;
    HIREL_RETURN_IF_ERROR(relation.Insert(item, truth).status());
  }
  return Status::OK();
}

}  // namespace hirel
