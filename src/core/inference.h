// Inference: the truth value of any item (class or instance) in a
// hierarchical relation.
//
// "The truth value of an item is obtained as the truth value of the tuple
// that binds strongest to it." (Section 2.1.) With no applicable tuple the
// item is false under the closed-world reading the paper adopts for
// relations ("negated tuples correspond to elements of D* that are mapped
// to zero, just as elements not mentioned in the relation are", Section
// 3.3.1).

#ifndef HIREL_CORE_INFERENCE_H_
#define HIREL_CORE_INFERENCE_H_

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// Infers the truth value of `item`.
///
/// Errors:
///  * kConflict — the strongest-binding tuples disagree (the database is in
///    an inconsistent state for this item; see integrity.h);
///  * kInvalidArgument — the item does not match the relation's schema;
///  * kResourceExhausted — on-path search blow-up (see InferenceOptions).
Result<Truth> InferTruth(const HierarchicalRelation& relation,
                         ItemView item,
                         const InferenceOptions& options = {});

/// Convenience: true iff `item` infers to positive. Conflicts and other
/// errors propagate.
Result<bool> Holds(const HierarchicalRelation& relation, ItemView item,
                   const InferenceOptions& options = {});

}  // namespace hirel

#endif  // HIREL_CORE_INFERENCE_H_
