// Timed direct calls into the engine's layer entry points, made beside the
// statements of the traced run (never inside an untraced measurement).
// Each probe returns its wall time in ns, or 0 when the call failed (the
// failure is reported on stderr; probes are diagnostics, not answers).
//
// This is the only file of the benchmark that uses engine APIs below the
// HQL executor.

#ifndef HQLBENCH_PROBES_H_
#define HQLBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hql/executor.h"

namespace hqlbench {

using hirel::hql::Executor;

/// algebra/select: SelectEquals(rel, attr, node).
uint64_t ProbeSelect(Executor& exec, const std::string& rel,
                     const std::string& attr, const std::string& node);

/// algebra/join: the natural join of both inputs selected on `node` (the
/// pushed-down shape the planner runs); only the join is timed.
uint64_t ProbeJoin(Executor& exec, const std::string& left,
                   const std::string& right, const std::string& attr,
                   const std::string& node);

/// algebra/setops: Intersect or Difference of both inputs selected on
/// `node`; only the set operation is timed.
uint64_t ProbeSetOp(Executor& exec, const std::string& left,
                    const std::string& right, const std::string& attr,
                    const std::string& node, bool intersect);

/// core/integrity: a full CheckAmbiguity of `rel`.
uint64_t ProbeCheck(Executor& exec, const std::string& rel);

/// core/subsumption_cache: SubsumptionCache::Get of `rel`.
uint64_t ProbeCacheGet(Executor& exec, const std::string& rel);

/// core/hierarchical_relation: TuplesSubsuming of a one-attribute item.
uint64_t ProbeSubsuming(Executor& exec, const std::string& rel,
                        const std::string& node);

/// core/tuple_store: ns per live tuple to read every tuple's truth.
double ProbeScanNsPerTuple(Executor& exec, const std::string& rel);

/// Sum of ApproxBytes() and of live tuples over `rels`.
void StoreFootprint(Executor& exec, const std::vector<std::string>& rels,
                    uint64_t* bytes, uint64_t* tuples);

/// Inserts the fact `item` (one node name per attribute) into `rel` with
/// the relation's unguarded Insert, skipping the ambiguity check (the
/// snapshot writer uses it for data that is conflict-free by construction:
/// a guarded bulk load of 10^4 tuples takes longer than the benchmark's
/// whole run).
bool InsertUnguarded(Executor& exec, const std::string& rel,
                     const std::vector<std::string>& item, bool positive);

struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t patches = 0;
  uint64_t rebuilds = 0;
  uint64_t journal_overflows = 0;
};

CacheCounters ReadCacheCounters(const Executor& exec);

}  // namespace hqlbench

#endif  // HQLBENCH_PROBES_H_
