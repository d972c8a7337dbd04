#include "extensions/three_valued.h"

#include <algorithm>

#include "common/str_util.h"

namespace hirel {

namespace {

/// Enumerates the atomic items under `item` and folds `visit` over them,
/// stopping early when `visit` returns false.
template <typename Visitor>
void ForEachAtomUnder(const Schema& schema, ItemView item,
                      Visitor&& visit) {
  std::vector<std::vector<NodeId>> choices(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    const Hierarchy* h = schema.hierarchy(i);
    choices[i] = h->is_class(item[i]) ? h->AtomsUnder(item[i])
                                      : std::vector<NodeId>{item[i]};
    if (choices[i].empty()) return;
  }
  Item current(schema.size());
  std::vector<size_t> idx(schema.size(), 0);
  while (true) {
    for (size_t i = 0; i < schema.size(); ++i) current[i] = choices[i][idx[i]];
    if (!visit(current)) return;
    size_t k = schema.size();
    bool done = schema.empty();
    while (k > 0) {
      --k;
      if (++idx[k] < choices[k].size()) break;
      idx[k] = 0;
      if (k == 0) done = true;
    }
    if (done) return;
  }
}

}  // namespace

const char* Truth3ToString(Truth3 t) {
  switch (t) {
    case Truth3::kFalse:
      return "false";
    case Truth3::kUnknown:
      return "unknown";
    case Truth3::kTrue:
      return "true";
  }
  return "?";
}

Truth3 And3(Truth3 a, Truth3 b) { return std::min(a, b); }
Truth3 Or3(Truth3 a, Truth3 b) { return std::max(a, b); }
Truth3 Not3(Truth3 a) {
  switch (a) {
    case Truth3::kFalse:
      return Truth3::kTrue;
    case Truth3::kUnknown:
      return Truth3::kUnknown;
    case Truth3::kTrue:
      return Truth3::kFalse;
  }
  return Truth3::kUnknown;
}

Result<Truth3> InferOpenWorld(const HierarchicalRelation& relation,
                              ItemView item,
                              const InferenceOptions& options) {
  if (item.size() != relation.schema().size()) {
    return Status::InvalidArgument(
        StrCat("item arity ", item.size(), " does not match relation '",
               relation.name(), "' arity ", relation.schema().size()));
  }
  HIREL_ASSIGN_OR_RETURN(Binding binding,
                         ComputeBinding(relation, item, options));
  if (binding.binders.empty()) {
    return Truth3::kUnknown;  // the open world: simply not known
  }
  Truth truth = relation.tuple(binding.binders.front()).truth;
  for (TupleId id : binding.binders) {
    if (relation.tuple(id).truth != truth) {
      return Status::Conflict(
          StrCat("item ", ItemToString(relation.schema(), item),
                 " has strongest binders of differing truth values"));
    }
  }
  return truth == Truth::kPositive ? Truth3::kTrue : Truth3::kFalse;
}

Result<Truth3> ForAllHolds(const HierarchicalRelation& relation,
                           ItemView item,
                           const InferenceOptions& options) {
  Truth3 result = Truth3::kTrue;  // vacuous truth over an empty class
  Status failure = Status::OK();
  ForEachAtomUnder(relation.schema(), item, [&](const Item& atom) {
    Result<Truth3> v = InferOpenWorld(relation, atom, options);
    if (!v.ok()) {
      failure = v.status();
      return false;
    }
    result = And3(result, *v);
    return result != Truth3::kFalse;  // one false member settles it
  });
  if (!failure.ok()) return failure;
  return result;
}

Result<Truth3> ExistsHolds(const HierarchicalRelation& relation,
                           ItemView item,
                           const InferenceOptions& options) {
  Truth3 result = Truth3::kFalse;  // no members, no witness
  Status failure = Status::OK();
  ForEachAtomUnder(relation.schema(), item, [&](const Item& atom) {
    Result<Truth3> v = InferOpenWorld(relation, atom, options);
    if (!v.ok()) {
      failure = v.status();
      return false;
    }
    result = Or3(result, *v);
    return result != Truth3::kTrue;  // one witness settles it
  });
  if (!failure.ok()) return failure;
  return result;
}

}  // namespace hirel
