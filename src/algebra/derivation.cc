#include "algebra/derivation.h"

namespace hirel {

Result<HierarchicalRelation> DeriveRelation(
    std::string name, const Schema& schema, std::vector<Item> candidates,
    const std::function<Result<Truth>(const Item&)>& truth_of,
    size_t max_items) {
  HIREL_RETURN_IF_ERROR(
      CloseUnderMaximalCommonDescendants(schema, candidates, max_items));
  HierarchicalRelation result(std::move(name), schema);
  for (const Item& item : candidates) {
    HIREL_ASSIGN_OR_RETURN(Truth truth, truth_of(item));
    HIREL_RETURN_IF_ERROR(result.Insert(item, truth).status());
  }
  return result;
}

}  // namespace hirel
