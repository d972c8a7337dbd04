#include "algebra/setops.h"

#include <functional>

#include "algebra/derivation.h"
#include "common/str_util.h"
#include "core/inference.h"

namespace hirel {

namespace {

Result<HierarchicalRelation> SetOp(
    const HierarchicalRelation& left, const HierarchicalRelation& right,
    const char* op_name, const std::function<bool(bool, bool)>& combine,
    const SetOpOptions& options) {
  if (!left.schema().CompatibleWith(right.schema())) {
    return Status::InvalidArgument(
        StrCat("set operation '", op_name, "': schemas of '", left.name(),
               "' and '", right.name(), "' are not domain-compatible"));
  }
  // The MCD closure inside DeriveRelation adds the cross MCDs: where
  // overlapping-but-incomparable classes from the two relations meet, the
  // combined truth can differ from either default (e.g. an intersection is
  // true only inside the overlap).
  std::vector<Item> candidates;
  candidates.reserve(left.size() + right.size());
  for (TupleId id : left.TupleIds()) {
    candidates.push_back(left.ItemAt(id).ToItem());
  }
  for (TupleId id : right.TupleIds()) {
    candidates.push_back(right.ItemAt(id).ToItem());
  }
  Result<HierarchicalRelation> derived = DeriveRelation(
      StrCat(left.name(), "_", op_name, "_", right.name()), left.schema(),
      std::move(candidates),
      [&](const Item& item) -> Result<Truth> {
        HIREL_ASSIGN_OR_RETURN(Truth lt,
                               InferTruth(left, item, options.inference));
        HIREL_ASSIGN_OR_RETURN(Truth rt,
                               InferTruth(right, item, options.inference));
        return combine(lt == Truth::kPositive, rt == Truth::kPositive)
                   ? Truth::kPositive
                   : Truth::kNegative;
      },
      options.max_items);
  // The closure enforces the cap with a generic message; re-label it so
  // HQL users see which set operation overflowed.
  if (!derived.ok() && derived.status().IsResourceExhausted()) {
    return Status::ResourceExhausted(StrCat("set operation '", op_name,
                                            "' exceeds ", options.max_items,
                                            " candidate items"));
  }
  return derived;
}

}  // namespace

Result<HierarchicalRelation> Union(const HierarchicalRelation& left,
                                   const HierarchicalRelation& right,
                                   const SetOpOptions& options) {
  return SetOp(left, right, "union",
               [](bool l, bool r) { return l || r; }, options);
}

Result<HierarchicalRelation> Intersect(const HierarchicalRelation& left,
                                       const HierarchicalRelation& right,
                                       const SetOpOptions& options) {
  return SetOp(left, right, "intersect",
               [](bool l, bool r) { return l && r; }, options);
}

Result<HierarchicalRelation> Difference(const HierarchicalRelation& left,
                                        const HierarchicalRelation& right,
                                        const SetOpOptions& options) {
  return SetOp(left, right, "difference",
               [](bool l, bool r) { return l && !r; }, options);
}

}  // namespace hirel
