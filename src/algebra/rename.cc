#include "algebra/rename.h"

#include "common/str_util.h"

namespace hirel {

Result<HierarchicalRelation> Rename(
    const HierarchicalRelation& relation,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  const Schema& schema = relation.schema();
  std::vector<std::string> names(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) names[i] = schema.name(i);
  for (const auto& [from, to] : renames) {
    HIREL_ASSIGN_OR_RETURN(size_t position, schema.IndexOf(from));
    names[position] = to;
  }
  Schema renamed;
  for (size_t i = 0; i < schema.size(); ++i) {
    HIREL_RETURN_IF_ERROR(renamed.Append(names[i], schema.hierarchy(i)));
  }
  HierarchicalRelation result(StrCat(relation.name(), "_renamed"),
                              std::move(renamed));
  for (TupleId id : relation.TupleIds()) {
    TupleView t = relation.tuple(id);
    HIREL_RETURN_IF_ERROR(result.Insert(t.item, t.truth).status());
  }
  return result;
}

}  // namespace hirel
