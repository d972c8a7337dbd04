// Conflict detection and conflict-resolution sets (Sections 2.1, 2.2, 3.1).
//
// "If, for an item, there are multiple tuples of differing truth values as
// its immediate predecessors in the tuple-binding graph (and there is no
// tuple associated with the item itself), then we have a conflict. We treat
// such a conflict as an inconsistent state of the database and do not
// permit it."
//
// Completeness of the off-path detector. Candidate sites are the maximal
// common descendants (MCDs) of every mixed-truth, incomparable tuple pair.
// Claim: if any item u is conflicted, some MCD site is conflicted.
// Sketch: let p (positive) and n (negative) be two of u's immediate
// predecessors; they are incomparable (comparable binders cannot both be
// immediate). Pick a maximal common descendant m of (p, n) with m ⊇ u.
// Any asserted t strictly between p and m would satisfy t ⊇ m ⊇ u, hence
// t strictly between p and u, contradicting p's immediacy at u; so p (and
// symmetrically n) is an immediate predecessor of m. If m itself carried a
// tuple, that tuple would sit strictly between p and u, again contradicting
// immediacy. Hence m is a conflicted site. (With preference edges the
// binding order is no longer set inclusion and this argument weakens; use
// FindConflictsExhaustive when preference edges are present and certainty
// is required.)

#ifndef HIREL_CORE_CONFLICT_H_
#define HIREL_CORE_CONFLICT_H_

#include <vector>

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// One inconsistent item: its strongest binders disagree.
struct ConflictSite {
  Item item;
  std::vector<TupleId> binders;
};

/// Finds up to `max_sites` conflicted items under off-path (or none)
/// preemption by probing the MCD candidate sites of every mixed-truth
/// incomparable tuple pair. Sound, and complete for off-path preemption
/// without preference edges.
Result<std::vector<ConflictSite>> FindConflicts(
    const HierarchicalRelation& relation, const InferenceOptions& options = {},
    size_t max_sites = 16);

/// Exhaustive detector: probes every item in the product of the per-
/// attribute downsets of asserted components (capped by `max_items`,
/// kResourceExhausted beyond it). Complete for all preemption modes;
/// exponential in the worst case — intended for tests and small databases.
Result<std::vector<ConflictSite>> FindConflictsExhaustive(
    const HierarchicalRelation& relation, const InferenceOptions& options = {},
    size_t max_sites = 16, size_t max_items = 1'000'000);

/// OK iff the relation satisfies the ambiguity constraint: "for each item
/// ... either there should be a tuple associated with the item, or every
/// predecessor of the item in the tuple-binding graph should have the same
/// truth value." Returns kConflict describing the first offending site.
Status CheckAmbiguity(const HierarchicalRelation& relation,
                      const InferenceOptions& options = {});

/// The complete conflict-resolution set of two conflicting items: every
/// item subsumed by both (capped; kResourceExhausted beyond `max_items`).
Result<std::vector<Item>> CompleteConflictResolutionSet(
    const Schema& schema, ItemView a, ItemView b,
    size_t max_items = 100'000);

/// The minimal conflict-resolution set: the maximal elements of the
/// complete set. "One tuple for each item in the minimal conflict
/// resolution set will suffice to resolve the conflict at hand."
std::vector<Item> MinimalConflictResolutionSet(const Schema& schema,
                                               ItemView a, ItemView b);

/// Resolves the conflict between the two tuple items by asserting `truth`
/// on every item of their minimal conflict-resolution set (skipping items
/// that already carry a tuple). The set is computed before the first
/// insert, so `a` and `b` may view `relation`'s own tuples.
Status ResolveConflict(HierarchicalRelation& relation, ItemView a,
                       ItemView b, Truth truth);

}  // namespace hirel

#endif  // HIREL_CORE_CONFLICT_H_
