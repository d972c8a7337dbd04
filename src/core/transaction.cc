#include "core/transaction.h"

#include "common/str_util.h"
#include "core/integrity.h"
#include "obs/log.h"

namespace hirel {

void Transaction::Insert(Item item, Truth truth) {
  ops_.push_back(Op{OpKind::kInsert, std::move(item), truth});
}

void Transaction::Erase(Item item) {
  ops_.push_back(Op{OpKind::kErase, std::move(item), Truth::kPositive});
}

Status Transaction::Commit(obs::Trace* trace) {
  size_t staged = ops_.size();
  std::vector<Undo> undo_log;
  undo_log.reserve(ops_.size());

  auto rollback = [&]() {
    if (metrics_ != nullptr) metrics_->counter("txn.commit_failures").Add();
    HIREL_LOG(obs::LogLevel::kWarn, "txn", "commit_failed",
              {{"relation", relation_->name()},
               {"staged", StrCat(staged)},
               {"applied", StrCat(undo_log.size())}});
    // Reverse in LIFO order, then abort: staged operations are discarded,
    // like any aborted transaction's.
    for (auto it = undo_log.rbegin(); it != undo_log.rend(); ++it) {
      if (it->kind == OpKind::kInsert) {
        // Reverse an applied insert.
        (void)relation_->EraseItem(it->item);
      } else {
        // Reverse an applied erase.
        (void)relation_->Insert(it->item, it->truth);
      }
    }
    ops_.clear();
  };

  for (const Op& op : ops_) {
    if (op.kind == OpKind::kInsert) {
      Result<TupleId> inserted = relation_->Insert(op.item, op.truth);
      if (!inserted.ok()) {
        rollback();
        return inserted.status();
      }
      undo_log.push_back(Undo{OpKind::kInsert, op.item, op.truth});
    } else {
      std::optional<TupleId> id = relation_->FindItem(op.item);
      if (!id.has_value()) {
        rollback();
        return Status::NotFound("transaction erases a non-existent tuple");
      }
      Truth prior = relation_->TruthOf(*id);
      Status erased = relation_->Erase(*id);
      if (!erased.ok()) {
        rollback();
        return erased;
      }
      undo_log.push_back(Undo{OpKind::kErase, op.item, prior});
    }
  }

  Status check = CheckAmbiguityTraced(*relation_, options_, trace);
  if (!check.ok()) {
    rollback();
    return check;
  }
  ops_.clear();
  if (metrics_ != nullptr) {
    metrics_->counter("txn.commits").Add();
    metrics_->counter("txn.ops_committed").Add(staged);
  }
  HIREL_LOG(obs::LogLevel::kInfo, "txn", "commit",
            {{"relation", relation_->name()}, {"ops", StrCat(staged)}});
  return Status::OK();
}

}  // namespace hirel
