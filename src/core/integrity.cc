#include "core/integrity.h"

namespace hirel {

Status CheckAmbiguityTraced(const HierarchicalRelation& relation,
                            const InferenceOptions& options,
                            obs::Trace* trace) {
  obs::Trace::Scope span(trace, "integrity.check");
  span.Note("tuples", relation.size());
  return CheckAmbiguity(relation, options);
}

Result<TupleId> GuardedInsert(HierarchicalRelation& relation, ItemView item,
                              Truth truth, const InferenceOptions& options,
                              obs::Trace* trace) {
  HIREL_ASSIGN_OR_RETURN(TupleId id, relation.Insert(item, truth));
  Status check = CheckAmbiguityTraced(relation, options, trace);
  if (!check.ok()) {
    Status undo = relation.Erase(id);
    if (!undo.ok()) return undo;
    return check;
  }
  return id;
}

Status GuardedErase(HierarchicalRelation& relation, ItemView item,
                    const InferenceOptions& options, obs::Trace* trace) {
  std::optional<TupleId> id = relation.FindItem(item);
  if (!id.has_value()) {
    return Status::NotFound("no tuple on the given item");
  }
  Truth truth = relation.TruthOf(*id);
  HIREL_RETURN_IF_ERROR(relation.Erase(*id));
  Status check = CheckAmbiguityTraced(relation, options, trace);
  if (!check.ok()) {
    HIREL_RETURN_IF_ERROR(relation.Insert(item, truth).status());
    return check;
  }
  return Status::OK();
}

}  // namespace hirel
