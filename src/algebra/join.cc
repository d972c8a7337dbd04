#include "algebra/join.h"

#include <algorithm>

#include "algebra/derivation.h"
#include "common/str_util.h"
#include "core/inference.h"
#include "obs/query_stats.h"

namespace hirel {

Result<HierarchicalRelation> JoinOn(
    const HierarchicalRelation& left, const HierarchicalRelation& right,
    const std::vector<std::pair<size_t, size_t>>& on,
    const JoinOptions& options) {
  const Schema& ls = left.schema();
  const Schema& rs = right.schema();

  std::vector<size_t> right_join_of(rs.size(), SIZE_MAX);  // right pos -> left pos
  for (const auto& [li, ri] : on) {
    if (li >= ls.size() || ri >= rs.size()) {
      return Status::InvalidArgument("join: attribute position out of range");
    }
    if (ls.hierarchy(li) != rs.hierarchy(ri)) {
      return Status::InvalidArgument(
          StrCat("join: attributes '", ls.name(li), "' and '", rs.name(ri),
                 "' range over different hierarchies"));
    }
    if (right_join_of[ri] != SIZE_MAX) {
      return Status::InvalidArgument(
          StrCat("join: right attribute '", rs.name(ri), "' joined twice"));
    }
    right_join_of[ri] = li;
  }

  // Result schema: left attributes, then right non-join attributes.
  Schema schema;
  for (size_t i = 0; i < ls.size(); ++i) {
    HIREL_RETURN_IF_ERROR(schema.Append(ls.name(i), ls.hierarchy(i)));
  }
  std::vector<size_t> tail_positions;  // right pos -> result pos (non-join)
  tail_positions.assign(rs.size(), SIZE_MAX);
  for (size_t j = 0; j < rs.size(); ++j) {
    if (right_join_of[j] != SIZE_MAX) continue;
    std::string name = rs.name(j);
    if (schema.IndexOf(name).ok()) {
      name = StrCat(right.name(), ".", name);
    }
    tail_positions[j] = schema.size();
    HIREL_RETURN_IF_ERROR(schema.Append(std::move(name), rs.hierarchy(j)));
  }

  // Candidate items: align every tuple pair on the join attributes.
  auto overflow = [&]() {
    return Status::ResourceExhausted(
        StrCat("join of '", left.name(), "' (", left.size(),
               " tuples) with '", right.name(), "' (", right.size(),
               " tuples) exceeds the candidate-item limit of ",
               options.max_items,
               "; consolidate the arguments, select a sub-hierarchy first, "
               "or raise JoinOptions::max_items"));
  };
  // Right items are listed once, in ascending id order, as views into the
  // right store's arena; nothing mutates either store during the join.
  std::vector<ItemView> right_items;
  right_items.reserve(right.size());
  for (TupleId rid : right.TupleIds()) {
    right_items.push_back(right.ItemAt(rid));
  }
  obs::ScopedAllocTracking tracked(right_items.size() * sizeof(ItemView));

  // Candidate order is the nested loop's: left ids ascending, then right
  // ids ascending.
  std::vector<Item> candidates;
  // Per-join-attribute alignment choices, reused across pairs.
  std::vector<std::vector<NodeId>> choices(on.size());
  for (TupleId lid : left.TupleIds()) {
    ItemView litem = left.ItemAt(lid);
    for (ItemView ritem : right_items) {
      bool disjoint = false;
      for (size_t k = 0; k < on.size(); ++k) {
        const Hierarchy* h = ls.hierarchy(on[k].first);
        NodeId l = litem[on[k].first];
        NodeId r = ritem[on[k].second];
        if (h->LeafDisjoint(l, r)) {
          disjoint = true;
          break;
        }
        choices[k] = h->MaximalCommonDescendants(l, r);
        if (choices[k].empty()) {
          disjoint = true;
          break;
        }
      }
      if (disjoint) continue;

      Item base(schema.size());
      for (size_t i = 0; i < ls.size(); ++i) base[i] = litem[i];
      for (size_t j = 0; j < rs.size(); ++j) {
        if (tail_positions[j] != SIZE_MAX) {
          base[tail_positions[j]] = ritem[j];
        }
      }
      std::vector<size_t> idx(on.size(), 0);
      while (true) {
        if (candidates.size() >= options.max_items) return overflow();
        Item item = base;
        for (size_t k = 0; k < on.size(); ++k) {
          item[on[k].first] = choices[k][idx[k]];
        }
        candidates.push_back(std::move(item));
        size_t k = on.size();
        bool done = on.empty();
        while (k > 0) {
          --k;
          if (++idx[k] < choices[k].size()) break;
          idx[k] = 0;
          if (k == 0) done = true;
        }
        if (done) break;
      }
    }
  }
  tracked.Grow(candidates.size() *
               (sizeof(Item) + schema.size() * sizeof(NodeId)));

  Result<HierarchicalRelation> derived = DeriveRelation(
      StrCat(left.name(), "_join_", right.name()), schema,
      std::move(candidates),
      [&](const Item& item) -> Result<Truth> {
        Item litem(ls.size());
        for (size_t i = 0; i < ls.size(); ++i) litem[i] = item[i];
        Item ritem(rs.size());
        for (size_t j = 0; j < rs.size(); ++j) {
          ritem[j] = right_join_of[j] != SIZE_MAX
                         ? item[right_join_of[j]]
                         : item[tail_positions[j]];
        }
        HIREL_ASSIGN_OR_RETURN(Truth lt,
                               InferTruth(left, litem, options.inference));
        HIREL_ASSIGN_OR_RETURN(Truth rt,
                               InferTruth(right, ritem, options.inference));
        return (lt == Truth::kPositive && rt == Truth::kPositive)
                   ? Truth::kPositive
                   : Truth::kNegative;
      },
      options.max_items);
  // The MCD closure inside DeriveRelation enforces the same cap with a
  // generic message; re-label it so HQL users see which join overflowed.
  if (!derived.ok() && derived.status().IsResourceExhausted()) {
    return overflow();
  }
  return derived;
}

Result<HierarchicalRelation> NaturalJoin(const HierarchicalRelation& left,
                                         const HierarchicalRelation& right,
                                         const JoinOptions& options) {
  std::vector<std::pair<size_t, size_t>> on;
  const Schema& ls = left.schema();
  const Schema& rs = right.schema();
  for (size_t i = 0; i < ls.size(); ++i) {
    Result<size_t> j = rs.IndexOf(ls.name(i));
    if (!j.ok()) continue;
    if (ls.hierarchy(i) != rs.hierarchy(*j)) {
      return Status::InvalidArgument(
          StrCat("natural join: shared attribute '", ls.name(i),
                 "' ranges over different hierarchies"));
    }
    on.emplace_back(i, *j);
  }
  return JoinOn(left, right, on, options);
}

Result<HierarchicalRelation> CartesianProduct(
    const HierarchicalRelation& left, const HierarchicalRelation& right,
    const JoinOptions& options) {
  return JoinOn(left, right, {}, options);
}

}  // namespace hirel
