// Justification of inferred answers (Section 3.4, Fig. 9).
//
// "One can, in our model, not only obtain the result of a selection, but
// also find out which tuples in the relation were applicable" — either to
// confirm an unexpected answer or to debug a poorly specified input.

#ifndef HIREL_ALGEBRA_JUSTIFY_H_
#define HIREL_ALGEBRA_JUSTIFY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// Why an item has its inferred truth value.
struct Justification {
  Item item;

  /// The inferred truth; unset (and `conflict` true) when the strongest
  /// binders disagree.
  Truth verdict = Truth::kNegative;
  bool conflict = false;

  /// Every tuple whose item subsumes the queried item (the nodes of its
  /// tuple-binding graph), most specific first.
  std::vector<TupleId> applicable;

  /// The subset of `applicable` that binds strongest and decided (or
  /// contested) the verdict.
  std::vector<TupleId> binders;
};

/// Explains the truth value of `item` in `relation`.
Result<Justification> Explain(const HierarchicalRelation& relation,
                              ItemView item,
                              const InferenceOptions& options = {});

/// Multi-line, figure-style rendering of a justification.
std::string JustificationToString(const HierarchicalRelation& relation,
                                  const Justification& justification);

}  // namespace hirel

#endif  // HIREL_ALGEBRA_JUSTIFY_H_
