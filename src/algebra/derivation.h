// Shared machinery for the derived-relation operators (Section 3.4).
//
// Every hierarchical operator in hirel is built the same way:
//   1. generate *candidate* items for the result (tuple items of the
//      arguments, clamped/combined as the operator requires);
//   2. close the candidate set under maximal common descendants, so the
//      result cannot harbour an off-path conflict at an unasserted site;
//   3. assign each candidate the truth value the operator's flat semantics
//      dictates for the *generic member* of that item (computed via
//      inference on the argument relations), relying on more specific
//      candidates to carry the exceptions.
//
// The result's extension then equals the flat operator applied to the
// arguments' extensions ("any manipulations on hierarchical relations
// should have the same effect whether performed on the hierarchical
// relations or on the equivalent flat relations"), which the property test
// suite verifies against the flat baseline.

#ifndef HIREL_ALGEBRA_DERIVATION_H_
#define HIREL_ALGEBRA_DERIVATION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/hierarchical_relation.h"
#include "types/item.h"

namespace hirel {

/// Assigns every candidate item the truth produced by `truth_of` and
/// returns the resulting relation. Candidates are deduplicated and closed
/// under maximal common descendants first (capped at `max_items`).
Result<HierarchicalRelation> DeriveRelation(
    std::string name, const Schema& schema, std::vector<Item> candidates,
    const std::function<Result<Truth>(const Item&)>& truth_of,
    size_t max_items = 100'000);

}  // namespace hirel

#endif  // HIREL_ALGEBRA_DERIVATION_H_
