// Aggregation over hierarchical relations.
//
// Section 3.3.2 motivates explication with "a count, average, or other
// statistical operation ... to be performed over the relation". This
// module performs those statistics directly, plus the hierarchical twist
// the model makes natural: ROLL-UP, grouping extension rows by the classes
// of the taxonomy rather than by raw values.
//
// None of the kernels explicates. Explicate walks the subsumption graph
// from its last node to its first and lets the first tuple that reaches an
// atom claim it, so the claimer of atom a is the tuple with the highest
// graph position among those whose item subsumes a. The extension is the
// set of atoms with a positive claimer. One sweep visits the graph in that
// order and skips the atoms already claimed; the kernels consume the
// claims without building a relation.
// This definition holds on every relation, consistent or not, so the
// answers equal those computed from Extension() everywhere.

#ifndef HIREL_ALGEBRA_AGGREGATE_H_
#define HIREL_ALGEBRA_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/hierarchical_relation.h"
#include "core/subsumption.h"

namespace hirel {

/// Counters of one claim sweep, for the aggregate.sweep trace span.
struct AggregateStats {
  /// Subsumption-graph nodes swept (every live tuple).
  size_t tuples = 0;
  /// Atoms considered for a claim: each atomic tuple's item, the
  /// unmarked instances a one-attribute walk reaches, and every atom a
  /// wider class tuple enumerates.
  size_t atoms = 0;
  /// Atoms claimed, positive and negative.
  size_t claimed = 0;
};

/// Options of the aggregate kernels.
struct AggregateOptions {
  /// The sweep fails with kResourceExhausted once the claimed atoms,
  /// positive and negative together, would exceed this. It is the same
  /// limit, message and failure point as ExplicateOptions::
  /// max_result_tuples, which a full explication of the relation hits.
  size_t max_rows = 10'000'000;

  /// Pre-built subsumption graph of the aggregated relation (see
  /// ExplicateOptions::graph); null builds it on the fly.
  const SubsumptionGraph* graph = nullptr;

  /// When non-null, receives the sweep's counters.
  AggregateStats* stats = nullptr;
};

/// Number of rows in the relation's extension (the COUNT(*) the paper
/// mentions): the atoms whose claimer is positive.
Result<size_t> CountExtension(const HierarchicalRelation& relation,
                              const AggregateOptions& options = {});

/// Numeric aggregate over attribute `attr` of the extension; the attribute
/// must hold int or double instances. kAvg over an empty extension is an
/// error; min/max over an empty extension are errors too; kSum is 0.
enum class AggregateKind { kSum, kAvg, kMin, kMax };

Result<double> Aggregate(const HierarchicalRelation& relation, size_t attr,
                         AggregateKind kind,
                         const AggregateOptions& options = {});

/// One roll-up bucket: a class and how many extension rows fall under it.
struct RollUpRow {
  NodeId group = kInvalidNode;
  size_t count = 0;
};

/// Groups the extension by taxonomy classes: for each class in `groups`
/// (all from attribute `attr`'s hierarchy), counts the extension rows
/// whose attr component it subsumes. Groups may overlap (multiple
/// inheritance), in which case a row counts once per covering group.
Result<std::vector<RollUpRow>> RollUp(const HierarchicalRelation& relation,
                                      size_t attr,
                                      const std::vector<NodeId>& groups,
                                      const AggregateOptions& options = {});

/// Convenience: rolls up by the direct children of attribute `attr`'s
/// hierarchy root (the top-level taxonomy split).
Result<std::vector<RollUpRow>> RollUpTopLevel(
    const HierarchicalRelation& relation, size_t attr,
    const AggregateOptions& options = {});

/// "class: count"-per-line rendering of a roll-up.
std::string RollUpToString(const HierarchicalRelation& relation, size_t attr,
                           const std::vector<RollUpRow>& rows);

}  // namespace hirel

#endif  // HIREL_ALGEBRA_AGGREGATE_H_
