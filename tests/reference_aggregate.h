// Test-local reference aggregates: the explicate-based kernels the engine
// used before it counted claims over the subsumption graph. Each one
// materialises the extension with Extension() (a full Explicate into a
// fresh relation, sorted) and reads the answer off the rows: COUNT is the
// row count, a roll-up tests Subsumes for every (group, row) pair, and a
// numeric aggregate folds the rows in sorted order. The claim sweep must
// match these answers, errors included.

#ifndef HIREL_TESTS_REFERENCE_AGGREGATE_H_
#define HIREL_TESTS_REFERENCE_AGGREGATE_H_

#include <algorithm>
#include <vector>

#include "algebra/aggregate.h"
#include "common/str_util.h"
#include "core/explicate.h"

namespace hirel {
namespace testing {

inline Result<std::vector<Item>> ReferenceRows(
    const HierarchicalRelation& relation, const AggregateOptions& options) {
  ExplicateOptions explicate_options;
  explicate_options.max_result_tuples = options.max_rows;
  explicate_options.graph = options.graph;
  return Extension(relation, explicate_options);
}

inline Result<size_t> ReferenceCountExtension(
    const HierarchicalRelation& relation,
    const AggregateOptions& options = {}) {
  HIREL_ASSIGN_OR_RETURN(std::vector<Item> rows,
                         ReferenceRows(relation, options));
  return rows.size();
}

inline Result<double> ReferenceAggregate(const HierarchicalRelation& relation,
                                         size_t attr, AggregateKind kind,
                                         const AggregateOptions& options = {}) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("aggregate: attribute position ", attr, " out of range"));
  }
  HIREL_ASSIGN_OR_RETURN(std::vector<Item> rows,
                         ReferenceRows(relation, options));
  if (rows.empty()) {
    if (kind == AggregateKind::kSum) return 0.0;
    return Status::InvalidArgument(
        "aggregate: avg/min/max over an empty extension");
  }
  const Hierarchy* h = schema.hierarchy(attr);
  double sum = 0, lo = 0, hi = 0;
  bool first = true;
  for (const Item& row : rows) {
    const Value& value = h->InstanceValue(row[attr]);
    double v;
    if (value.is_int()) {
      v = static_cast<double>(value.AsInt());
    } else if (value.is_double()) {
      v = value.AsDouble();
    } else {
      return Status::InvalidArgument(
          StrCat("aggregate: attribute '", schema.name(attr),
                 "' holds non-numeric value '", value.ToString(), "'"));
    }
    sum += v;
    lo = first ? v : std::min(lo, v);
    hi = first ? v : std::max(hi, v);
    first = false;
  }
  switch (kind) {
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      return sum / static_cast<double>(rows.size());
    case AggregateKind::kMin:
      return lo;
    case AggregateKind::kMax:
      return hi;
  }
  return Status::Internal("unhandled aggregate kind");
}

inline Result<std::vector<RollUpRow>> ReferenceRollUp(
    const HierarchicalRelation& relation, size_t attr,
    const std::vector<NodeId>& groups, const AggregateOptions& options = {}) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("rollup: attribute position ", attr, " out of range"));
  }
  const Hierarchy* h = schema.hierarchy(attr);
  for (NodeId group : groups) {
    if (!h->alive(group)) {
      return Status::InvalidArgument("rollup: dead group node");
    }
  }
  HIREL_ASSIGN_OR_RETURN(std::vector<Item> rows,
                         ReferenceRows(relation, options));
  std::vector<RollUpRow> out;
  out.reserve(groups.size());
  for (NodeId group : groups) {
    RollUpRow row{group, 0};
    for (const Item& item : rows) {
      if (h->Subsumes(group, item[attr])) ++row.count;
    }
    out.push_back(row);
  }
  return out;
}

inline Result<std::vector<RollUpRow>> ReferenceRollUpTopLevel(
    const HierarchicalRelation& relation, size_t attr,
    const AggregateOptions& options = {}) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("rollup: attribute position ", attr, " out of range"));
  }
  const Hierarchy* h = schema.hierarchy(attr);
  return ReferenceRollUp(relation, attr, h->Children(h->root()), options);
}

}  // namespace testing
}  // namespace hirel

#endif  // HIREL_TESTS_REFERENCE_AGGREGATE_H_
