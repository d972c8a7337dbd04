#include "plan/execute.h"

#include <chrono>
#include <memory>
#include <utility>

#include "algebra/join.h"
#include "algebra/project.h"
#include "algebra/rename.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "common/str_util.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "obs/trace.h"
#include "obs/wait.h"

namespace hirel {
namespace plan {
namespace {

/// An operand produced by the walk: either a borrowed base relation (graph
/// cacheable) or an owned intermediate.
struct Slot {
  const HierarchicalRelation* rel = nullptr;
  std::unique_ptr<HierarchicalRelation> owned;

  bool is_base() const { return owned == nullptr; }
};

class Walker {
 public:
  Walker(Database& db, const ExecOptions& options, ExecStats* stats)
      : db_(db), options_(options), stats_(stats) {}

  Result<PlanOutput> Run(const PlanNode& root) {
    PlanOutput out;
    if (root.op == PlanOp::kAggregate) {
      PlanNodeStats* ns = NodeStats(root);
      auto start = std::chrono::steady_clock::now();
      const uint64_t wait_mark = ns != nullptr ? WaitMark() : 0;
      HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*root.children[0]));
      if (stats_ != nullptr) ++stats_->nodes_executed;
      AggregateOptions agg;
      agg.graph = GraphFor(input, ns);
      AggregateStats sweep;
      agg.stats = &sweep;
      {
        obs::Trace::Scope span(options_.trace, "aggregate.sweep");
        if (root.aggregate == AggregateOp::kCount) {
          HIREL_ASSIGN_OR_RETURN(size_t count,
                                 CountExtension(*input.rel, agg));
          out.count = count;
        } else {
          HIREL_ASSIGN_OR_RETURN(std::vector<RollUpRow> rows,
                                 RollUpTopLevel(*input.rel, root.attr, agg));
          out.rollup = std::move(rows);
        }
        span.Note("tuples", sweep.tuples);
        span.Note("atoms", sweep.atoms);
        span.Note("claimed", sweep.claimed);
      }
      if (ns != nullptr) {
        ns->rows_in = sweep.tuples;
        ns->rows_out = out.count.has_value() ? 1 : out.rollup->size();
      }
      CloseNodeStats(ns, start, wait_mark);
      return out;
    }
    HIREL_ASSIGN_OR_RETURN(Slot result, Exec(root));
    if (result.is_base()) {
      out.relation = *result.rel;  // copy; the catalog keeps the original
    } else {
      out.relation = std::move(*result.owned);
    }
    return out;
  }

 private:
  /// Per-node stats slot for `node`, or null when collection is off.
  PlanNodeStats* NodeStats(const PlanNode& node) {
    if (stats_ == nullptr || !options_.collect_node_stats) return nullptr;
    return &stats_->per_node[&node];
  }

  /// Snapshot of the attributed-wait counter, for per-node wait deltas.
  static uint64_t WaitMark() {
    return obs::WaitEventRegistry::Global().attributed_wait_ns();
  }

  /// Stamps wall time and the wait delta, and folds the node's probe
  /// count into the total.
  void CloseNodeStats(PlanNodeStats* ns,
                      std::chrono::steady_clock::time_point start,
                      uint64_t wait_mark) {
    if (ns == nullptr) return;
    ns->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ns->wait_ns = WaitMark() - wait_mark;
    stats_->subsumption_probes += ns->subsumption_probes;
  }

  /// Inference options for one node's kernel: the shared options with the
  /// probe counter pointed at the node's (or the run's) tally.
  InferenceOptions InferFor(PlanNodeStats* ns) {
    InferenceOptions inference = options_.inference;
    if (ns != nullptr) {
      inference.probe_counter = &ns->subsumption_probes;
    } else if (stats_ != nullptr) {
      inference.probe_counter = &stats_->subsumption_probes;
    }
    return inference;
  }

  /// Cached subsumption graph for a base-relation slot; null for
  /// intermediates (their graphs are one-shot, caching buys nothing).
  const SubsumptionGraph* GraphFor(const Slot& slot, PlanNodeStats* ns) {
    if (!slot.is_base() || options_.cache == nullptr) return nullptr;
    SubsumptionCache::GetOutcome outcome = SubsumptionCache::GetOutcome::kNone;
    const SubsumptionGraph* graph =
        &options_.cache->Get(*slot.rel, &outcome, options_.trace);
    if (stats_ != nullptr) {
      if (outcome == SubsumptionCache::GetOutcome::kHit) {
        ++stats_->graph_cache_hits;
        if (ns != nullptr) ++ns->graph_cache_hits;
      } else {
        ++stats_->graph_cache_misses;
        if (ns != nullptr) ++ns->graph_cache_misses;
        if (outcome == SubsumptionCache::GetOutcome::kPatched) {
          ++stats_->graph_cache_patched;
        }
      }
      if (ns != nullptr) {
        ns->cache_outcome = outcome;
        ns->cache_incremental = options_.cache->incremental();
      }
    }
    return graph;
  }

  Result<Slot> Exec(const PlanNode& node) {
    if (stats_ != nullptr) ++stats_->nodes_executed;
    PlanNodeStats* ns = NodeStats(node);
    if (ns == nullptr) return ExecNode(node, nullptr);
    auto start = std::chrono::steady_clock::now();
    const uint64_t wait_mark = WaitMark();
    Result<Slot> result = ExecNode(node, ns);
    if (result.ok()) ns->rows_out = result->rel->size();
    CloseNodeStats(ns, start, wait_mark);
    return result;
  }

  Result<Slot> ExecNode(const PlanNode& node, PlanNodeStats* ns) {
    switch (node.op) {
      case PlanOp::kScan: {
        Result<const HierarchicalRelation*> rel =
            std::as_const(db_).GetRelation(node.relation);
        if (rel.ok()) {
          if (stats_ != nullptr) stats_->rows_scanned += (*rel)->size();
          Slot slot;
          slot.rel = *rel;
          return slot;
        }
        // Virtual relations materialize into an owned slot, so the
        // subsumption-graph cache is bypassed (is_base() is false) and the
        // result dies with this execution.
        VirtualRelationProvider* provider =
            db_.FindVirtualRelation(node.relation);
        if (provider == nullptr) return rel.status();
        HIREL_ASSIGN_OR_RETURN(Slot slot, Own(provider->Materialize()));
        if (ns != nullptr) ns->virtual_scan = true;
        if (stats_ != nullptr) stats_->rows_scanned += slot.rel->size();
        return slot;
      }
      case PlanOp::kSelect: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        return Own(SelectEquals(*input.rel, node.attr, node.node,
                                InferFor(ns)));
      }
      case PlanOp::kSelectWhere: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        return Own(SelectWhere(*input.rel, node.attr, node.predicate,
                               InferFor(ns)));
      }
      case PlanOp::kProject: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        ProjectOptions project;
        project.inference = InferFor(ns);
        project.max_items = options_.max_items;
        return Own(Project(*input.rel, node.positions, project));
      }
      case PlanOp::kRename: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        return Own(Rename(*input.rel, node.renames));
      }
      case PlanOp::kJoin:
      case PlanOp::kProduct: {
        HIREL_ASSIGN_OR_RETURN(Slot left, Exec(*node.children[0]));
        HIREL_ASSIGN_OR_RETURN(Slot right, Exec(*node.children[1]));
        JoinOptions join;
        join.inference = InferFor(ns);
        join.max_items = options_.max_items;
        if (node.op == PlanOp::kProduct) {
          return Own(CartesianProduct(*left.rel, *right.rel, join));
        }
        if (!node.join_resolved) {
          return Own(NaturalJoin(*left.rel, *right.rel, join));
        }
        return Own(JoinOn(*left.rel, *right.rel, node.join_on, join));
      }
      case PlanOp::kSetOp: {
        HIREL_ASSIGN_OR_RETURN(Slot left, Exec(*node.children[0]));
        HIREL_ASSIGN_OR_RETURN(Slot right, Exec(*node.children[1]));
        SetOpOptions setop;
        setop.inference = InferFor(ns);
        setop.max_items = options_.max_items;
        switch (node.setop) {
          case SetOpKind::kUnion:
            return Own(Union(*left.rel, *right.rel, setop));
          case SetOpKind::kIntersect:
            return Own(Intersect(*left.rel, *right.rel, setop));
          case SetOpKind::kExcept:
            return Own(Difference(*left.rel, *right.rel, setop));
        }
        return Status::Internal("unhandled set operation");
      }
      case PlanOp::kConsolidate: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        const SubsumptionGraph* graph = GraphFor(input, ns);
        Slot slot;
        // Copies of a base relation share its tuple ids and version stamp,
        // so the cached graph stays valid for the copy being consolidated.
        slot.owned = input.is_base()
                         ? std::make_unique<HierarchicalRelation>(*input.rel)
                         : std::move(input.owned);
        slot.rel = slot.owned.get();
        HIREL_RETURN_IF_ERROR(
            ConsolidateInPlace(*slot.owned, InferFor(ns), graph)
                .status());
        return slot;
      }
      case PlanOp::kExplicate: {
        HIREL_ASSIGN_OR_RETURN(Slot input, Exec(*node.children[0]));
        ExplicateOptions explicate;
        explicate.inference = InferFor(ns);
        explicate.graph = GraphFor(input, ns);
        explicate.consolidate_after = node.consolidate_after;
        return Own(Explicate(*input.rel, node.positions, explicate));
      }
      case PlanOp::kAggregate:
        return Status::Internal(
            "plan: aggregate below the root is not executable");
    }
    return Status::Internal("unhandled plan operator");
  }

  static Result<Slot> Own(Result<HierarchicalRelation> result) {
    HIREL_RETURN_IF_ERROR(result.status());
    Slot slot;
    slot.owned =
        std::make_unique<HierarchicalRelation>(std::move(*result));
    slot.rel = slot.owned.get();
    return slot;
  }

  Database& db_;
  const ExecOptions& options_;
  ExecStats* stats_;
};

}  // namespace

Result<PlanOutput> ExecutePlan(const PlanNode& root, Database& db,
                               const ExecOptions& options, ExecStats* stats) {
  if (stats == nullptr) return Walker(db, options, stats).Run(root);
  const uint64_t wait_mark =
      obs::WaitEventRegistry::Global().attributed_wait_ns();
  Result<PlanOutput> out = Walker(db, options, stats).Run(root);
  stats->wait_ns =
      obs::WaitEventRegistry::Global().attributed_wait_ns() - wait_mark;
  return out;
}

}  // namespace plan
}  // namespace hirel
