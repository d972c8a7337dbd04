// Transaction: batch updates with consistency checked at commit.
//
// "If an update creates a conflict, within the same transaction, before the
// update is committed, other updates must be made that resolve the
// conflict, and themselves create no new unresolved conflict." (Section
// 3.1.) A Transaction stages inserts and erases, applies them atomically at
// Commit, verifies the ambiguity constraint once, and rolls everything back
// if the final state is inconsistent.

#ifndef HIREL_CORE_TRANSACTION_H_
#define HIREL_CORE_TRANSACTION_H_

#include <vector>

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hirel {

/// A single-relation transaction. Begin with the constructor, stage
/// operations, then Commit() exactly once. A destructed, uncommitted
/// transaction has no effect.
class Transaction {
 public:
  /// `metrics`, when non-null, receives txn.commits / txn.commit_failures /
  /// txn.ops_committed counters.
  explicit Transaction(HierarchicalRelation* relation,
                       InferenceOptions options = {},
                       obs::MetricsRegistry* metrics = nullptr)
      : relation_(relation), options_(options), metrics_(metrics) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Stages insertion of (item, truth).
  void Insert(Item item, Truth truth);

  /// Stages assertion of a positive tuple.
  void Assert(Item item) { Insert(std::move(item), Truth::kPositive); }

  /// Stages assertion of a negated tuple.
  void Deny(Item item) { Insert(std::move(item), Truth::kNegative); }

  /// Stages erasure of the tuple on `item`.
  void Erase(Item item);

  size_t num_staged() const { return ops_.size(); }

  /// Applies all staged operations in order, then checks the ambiguity
  /// constraint. If any operation fails or the final state is inconsistent,
  /// every applied operation is rolled back, the staged operations are
  /// discarded (the transaction aborts), and the error is returned. After
  /// either outcome the transaction is empty and reusable. The check runs
  /// in an "integrity.check" span of `trace`, if any.
  Status Commit(obs::Trace* trace = nullptr);

  /// Discards staged operations without touching the relation.
  void Rollback() { ops_.clear(); }

 private:
  enum class OpKind { kInsert, kErase };
  struct Op {
    OpKind kind;
    Item item;
    Truth truth = Truth::kPositive;
  };
  struct Undo {
    OpKind kind;  // the *applied* operation to reverse
    Item item;
    Truth truth = Truth::kPositive;  // prior truth, for reversing erases
    bool had_prior = false;          // for reversing upserts
    Truth prior_truth = Truth::kPositive;
  };

  HierarchicalRelation* relation_;
  InferenceOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<Op> ops_;
};

}  // namespace hirel

#endif  // HIREL_CORE_TRANSACTION_H_
