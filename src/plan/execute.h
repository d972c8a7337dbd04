// Physical execution of logical plans.
//
// Each plan node maps onto one existing kernel (src/algebra, src/core);
// base-relation inputs are borrowed from the catalog, intermediates are
// owned by the walk. Nodes that need a subsumption graph (consolidate,
// explicate, aggregate) consult the Database's SubsumptionCache when their
// input is a base relation — the version-stamp validation makes a hit
// always sound.

#ifndef HIREL_PLAN_EXECUTE_H_
#define HIREL_PLAN_EXECUTE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/aggregate.h"
#include "catalog/database.h"
#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"
#include "core/subsumption_cache.h"
#include "plan/plan_node.h"

namespace hirel {
namespace plan {

struct ExecOptions {
  /// Preemption mode etc., forwarded to every kernel.
  InferenceOptions inference;

  /// Subsumption-graph cache consulted for base-relation inputs; null
  /// disables caching (each kernel builds its own graph).
  SubsumptionCache* cache = nullptr;

  /// Trace receiving the cache's graph.build / graph.patch spans, as
  /// children of the innermost open span; null leaves them untraced.
  obs::Trace* trace = nullptr;

  /// Candidate cap forwarded to join / product / set-operation kernels.
  size_t max_items = 100'000;

  /// When true (and `stats` is non-null), ExecutePlan records per-node
  /// runtime stats — rows out, wall time, subsumption probes — keyed by
  /// plan-node address in ExecStats::per_node. EXPLAIN ANALYZE turns this
  /// on; the normal query path leaves it off and pays nothing.
  bool collect_node_stats = false;
};

/// Runtime stats of one plan node, collected under
/// ExecOptions::collect_node_stats.
struct PlanNodeStats {
  /// Tuples produced by this node (the count passed to its parent).
  size_t rows_out = 0;
  /// Tuples an Aggregate node's claim sweep visited (its input's
  /// subsumption-graph nodes); 0 on other nodes, whose input is their
  /// children's rows_out. EXPLAIN ANALYZE renders it on Aggregate lines.
  size_t rows_in = 0;
  /// Wall time, inclusive of children (Postgres-style actual time).
  uint64_t wall_ns = 0;
  /// Attributed wait time (queue/latch/lock/io; obs/wait.h) recorded while
  /// this node ran, inclusive of children like wall_ns.
  uint64_t wait_ns = 0;
  /// Strongest-binding computations performed by this node's own kernel
  /// (exclusive of children).
  uint64_t subsumption_probes = 0;
  size_t graph_cache_hits = 0;
  size_t graph_cache_misses = 0;
  /// How the node's graph-cache lookup (if any) was served: hit, patched
  /// in place from the mutation journal, or fully rebuilt. kNone for nodes
  /// that consult no cache. EXPLAIN ANALYZE renders misses as
  /// `patched=true|false`.
  SubsumptionCache::GetOutcome cache_outcome =
      SubsumptionCache::GetOutcome::kNone;
  /// Whether the cache's incremental patch path was enabled at lookup
  /// time (the SET INCREMENTAL switch); rendered as `incremental=on|off`.
  bool cache_incremental = false;
  /// True for a Scan of a virtual (sys.*) relation, materialized by its
  /// provider for this execution; EXPLAIN ANALYZE renders `virtual=true`.
  bool virtual_scan = false;
};

struct ExecStats {
  size_t nodes_executed = 0;
  size_t graph_cache_hits = 0;
  size_t graph_cache_misses = 0;
  /// Of the misses, how many were served by patching the cached graph in
  /// place instead of rebuilding it.
  size_t graph_cache_patched = 0;
  /// Total strongest-binding computations across the plan.
  uint64_t subsumption_probes = 0;
  /// Tuples read by the plan's Scan nodes (stored or virtual): the
  /// "rows in" of per-query accounting.
  uint64_t rows_scanned = 0;
  /// Attributed wait time recorded across the whole plan execution.
  uint64_t wait_ns = 0;
  /// Per-node runtime stats; populated only when
  /// ExecOptions::collect_node_stats is set.
  std::unordered_map<const PlanNode*, PlanNodeStats> per_node;
};

/// Result of executing a plan: a relation for relational roots, a scalar
/// count or a roll-up for aggregate roots.
struct PlanOutput {
  std::optional<HierarchicalRelation> relation;
  std::optional<size_t> count;
  std::optional<std::vector<RollUpRow>> rollup;
};

/// Executes an annotated plan against `db`. The tree must have been
/// annotated (AnnotatePlan / RewritePlan) since its last structural change.
Result<PlanOutput> ExecutePlan(const PlanNode& root, Database& db,
                               const ExecOptions& options = {},
                               ExecStats* stats = nullptr);

}  // namespace plan
}  // namespace hirel

#endif  // HIREL_PLAN_EXECUTE_H_
