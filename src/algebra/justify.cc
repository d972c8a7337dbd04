#include "algebra/justify.h"

#include <algorithm>

#include "common/str_util.h"

namespace hirel {

Result<Justification> Explain(const HierarchicalRelation& relation,
                              ItemView item,
                              const InferenceOptions& options) {
  const Schema& schema = relation.schema();
  if (item.size() != schema.size()) {
    return Status::InvalidArgument("explain: item arity mismatch");
  }
  Justification out;
  out.item = item.ToItem();
  out.applicable = relation.TuplesSubsuming(item);
  // Most specific first: t before u when t's item is strictly below u's.
  std::stable_sort(out.applicable.begin(), out.applicable.end(),
                   [&](TupleId a, TupleId b) {
                     return ItemStrictlySubsumes(schema,
                                                 relation.tuple(b).item,
                                                 relation.tuple(a).item);
                   });

  HIREL_ASSIGN_OR_RETURN(Binding binding,
                         ComputeBinding(relation, item, options));
  out.binders = binding.binders;
  if (binding.binders.empty()) {
    out.verdict = Truth::kNegative;  // closed world
    return out;
  }
  Truth first = relation.tuple(binding.binders.front()).truth;
  for (TupleId id : binding.binders) {
    if (relation.tuple(id).truth != first) {
      out.conflict = true;
      return out;
    }
  }
  out.verdict = first;
  return out;
}

std::string JustificationToString(const HierarchicalRelation& relation,
                                  const Justification& justification) {
  const Schema& schema = relation.schema();
  std::string out =
      StrCat("item ", ItemToString(schema, justification.item), ": ");
  if (justification.conflict) {
    out += "CONFLICT\n";
  } else if (justification.applicable.empty()) {
    out += StrCat(TruthToString(justification.verdict),
                  " (closed world: no applicable tuple)\n");
  } else {
    out += StrCat(TruthToString(justification.verdict), "\n");
  }
  for (TupleId id : justification.applicable) {
    TupleView t = relation.tuple(id);
    bool is_binder =
        std::find(justification.binders.begin(), justification.binders.end(),
                  id) != justification.binders.end();
    out += StrCat("  ", is_binder ? "binds> " : "       ",
                  TruthToString(t.truth), " ", ItemToString(schema, t.item),
                  "\n");
  }
  return out;
}

}  // namespace hirel
