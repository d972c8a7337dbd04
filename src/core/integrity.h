// Guarded updates enforcing the ambiguity constraint (Section 3.1).
//
// "Whenever an update is made we require that the update does not create an
// unresolved conflict." GuardedInsert/GuardedErase verify consistency after
// the change and roll the change back if it introduced a conflict;
// Transaction (transaction.h) batches several updates so a conflict may be
// created and resolved within the same transaction.

#ifndef HIREL_CORE_INTEGRITY_H_
#define HIREL_CORE_INTEGRITY_H_

#include "common/result.h"
#include "core/binding.h"
#include "core/conflict.h"
#include "core/hierarchical_relation.h"
#include "obs/trace.h"

namespace hirel {

/// CheckAmbiguity inside an "integrity.check" span of `trace` (noted with
/// the relation's tuple count), so traces attribute the check's time. A
/// null trace records nothing.
Status CheckAmbiguityTraced(const HierarchicalRelation& relation,
                            const InferenceOptions& options,
                            obs::Trace* trace);

/// Inserts (item, truth) and verifies the ambiguity constraint still holds.
/// On a fresh conflict the insert is rolled back and kConflict is returned
/// (describing the conflicted site and the minimal resolution set's size).
/// The check runs in an "integrity.check" span of `trace`, if any.
Result<TupleId> GuardedInsert(HierarchicalRelation& relation, ItemView item,
                              Truth truth, const InferenceOptions& options = {},
                              obs::Trace* trace = nullptr);

/// Erases the tuple on `item` and verifies no conflict becomes exposed
/// (removing a conflict-resolving tuple re-creates the conflict it
/// resolved; cf. the Fig. 3 discussion in Section 3.2). Rolls back on
/// failure. Traced like GuardedInsert.
Status GuardedErase(HierarchicalRelation& relation, ItemView item,
                    const InferenceOptions& options = {},
                    obs::Trace* trace = nullptr);

}  // namespace hirel

#endif  // HIREL_CORE_INTEGRITY_H_
