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
  const Schema& schema = left.schema();

  std::vector<Item> candidates;
  for (TupleId id : left.TupleIds()) {
    candidates.push_back(left.ItemAt(id).ToItem());
  }
  for (TupleId id : right.TupleIds()) {
    candidates.push_back(right.ItemAt(id).ToItem());
  }
  // Cross MCDs: where overlapping-but-incomparable classes from the two
  // relations meet, the combined truth can differ from either default (e.g.
  // an intersection is true only inside the overlap).
  size_t left_count = left.size();
  size_t initial = candidates.size();
  for (size_t i = 0; i < left_count; ++i) {
    for (size_t j = left_count; j < initial; ++j) {
      if (ItemComparable(schema, candidates[i], candidates[j])) continue;
      if (!ItemLeafDisjoint(schema, candidates[i], candidates[j])) {
        // Copy: ItemMaximalCommonDescendants must not hold references into
        // the vector we are appending to.
        Item a = candidates[i];
        Item b = candidates[j];
        for (Item& mcd : ItemMaximalCommonDescendants(schema, a, b)) {
          candidates.push_back(std::move(mcd));
        }
      }
      if (candidates.size() > options.max_items) {
        return Status::ResourceExhausted(
            StrCat("set operation '", op_name, "' exceeds ",
                   options.max_items, " candidate items"));
      }
    }
  }

  return DeriveRelation(
      StrCat(left.name(), "_", op_name, "_", right.name()), schema,
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
