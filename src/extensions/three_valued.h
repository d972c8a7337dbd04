// Three-valued (open-world) inference and quantifier queries — the first
// extension sketched in the paper's conclusion: "through the use of
// existential rather than universal quantifiers, and the use of
// three-valued (positive, negative, and unknown) rather than two-valued
// assertions, it may be possible to have a sound and conceptually pleasing
// treatment of partial information."
//
// hirel's reading: stored tuples stay two-valued (a positive tuple asserts
// the relation for every member, a negated tuple asserts its known absence
// — footnote 4's "for every element of A, relation R is not known to hold"
// reading is obtained by treating kFalse as 'known unsupported'), but
// *query answers* become three-valued: an item no tuple binds is kUnknown
// instead of the closed world's false.

#ifndef HIREL_EXTENSIONS_THREE_VALUED_H_
#define HIREL_EXTENSIONS_THREE_VALUED_H_

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// Kleene-style truth value of an open-world query.
enum class Truth3 : uint8_t {
  kFalse = 0,
  kUnknown = 1,
  kTrue = 2,
};

const char* Truth3ToString(Truth3 t);

/// Kleene strong conjunction / disjunction / negation.
Truth3 And3(Truth3 a, Truth3 b);
Truth3 Or3(Truth3 a, Truth3 b);
Truth3 Not3(Truth3 a);

/// Open-world inference: kTrue/kFalse when the strongest binders are
/// positive/negative, kUnknown when no tuple applies. Conflicts are still
/// errors (the ambiguity constraint is orthogonal to world assumptions).
Result<Truth3> InferOpenWorld(const HierarchicalRelation& relation,
                              ItemView item,
                              const InferenceOptions& options = {});

/// Universal quantifier over the known members of a (possibly class-
/// valued) item: kTrue iff every atomic member infers true; kFalse iff
/// some member infers false; kUnknown otherwise (some member unknown).
/// An item with no atomic members is vacuously kTrue.
Result<Truth3> ForAllHolds(const HierarchicalRelation& relation,
                           ItemView item,
                           const InferenceOptions& options = {});

/// Existential quantifier: kTrue iff some atomic member infers true;
/// kFalse iff every member infers false; kUnknown otherwise. An item with
/// no atomic members is kFalse.
Result<Truth3> ExistsHolds(const HierarchicalRelation& relation,
                           ItemView item,
                           const InferenceOptions& options = {});

}  // namespace hirel

#endif  // HIREL_EXTENSIONS_THREE_VALUED_H_
