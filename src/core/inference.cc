#include "core/inference.h"

#include "common/str_util.h"

namespace hirel {

Result<Truth> InferTruth(const HierarchicalRelation& relation,
                         ItemView item, const InferenceOptions& options) {
  if (item.size() != relation.schema().size()) {
    return Status::InvalidArgument(
        StrCat("item arity ", item.size(), " does not match relation '",
               relation.name(), "' arity ", relation.schema().size()));
  }
  HIREL_ASSIGN_OR_RETURN(Binding binding,
                         ComputeBinding(relation, item, options));
  if (binding.binders.empty()) {
    // Closed world: items no tuple applies to are mapped to zero.
    return Truth::kNegative;
  }
  Truth truth = relation.tuple(binding.binders.front()).truth;
  for (TupleId id : binding.binders) {
    if (relation.tuple(id).truth != truth) {
      std::string detail;
      for (TupleId b : binding.binders) {
        detail += StrCat(" [", TruthToString(relation.tuple(b).truth), " ",
                         ItemToString(relation.schema(), relation.tuple(b).item),
                         "]");
      }
      return Status::Conflict(
          StrCat("item ", ItemToString(relation.schema(), item),
                 " in relation '", relation.name(),
                 "' has strongest-binding tuples of differing truth values:",
                 detail));
    }
  }
  return truth;
}

Result<bool> Holds(const HierarchicalRelation& relation, ItemView item,
                   const InferenceOptions& options) {
  HIREL_ASSIGN_OR_RETURN(Truth truth, InferTruth(relation, item, options));
  return truth == Truth::kPositive;
}

}  // namespace hirel
