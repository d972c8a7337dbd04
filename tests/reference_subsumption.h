// Test-local reference subsumption-graph builder: the n² pairwise build the
// engine used before it switched to index-driven Up-sets. Every ordered
// pair of live tuples goes through ItemBindsBelow into n×n bitset rows,
// and an edge a -> b is kept when a's below-row and b's above-row are
// disjoint. The final assembly is the engine's canonical one (sorted
// adjacency, FIFO Kahn sort seeded in ascending-id order), so a correct
// builder renders byte-identically through SubsumptionGraphToString.

#ifndef HIREL_TESTS_REFERENCE_SUBSUMPTION_H_
#define HIREL_TESTS_REFERENCE_SUBSUMPTION_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "core/hierarchical_relation.h"
#include "core/subsumption.h"

namespace hirel {
namespace testing {

inline SubsumptionGraph ReferenceSubsumptionGraph(
    const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<TupleId> ids = relation.TupleIds();
  const size_t n = ids.size();

  // below[a] ∋ b iff a binds strictly above b.
  std::vector<DynamicBitset> below(n, DynamicBitset(n));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a != b && ItemBindsBelow(schema, relation.ItemAt(ids[a]),
                                   relation.ItemAt(ids[b]))) {
        below[a].Set(b);
      }
    }
  }
  std::vector<DynamicBitset> above(n, DynamicBitset(n));
  for (size_t a = 0; a < n; ++a) {
    for (uint32_t b : below[a].ToVector()) above[b].Set(a);
  }

  // Hasse edge a -> b iff nothing lies strictly between them.
  std::vector<std::vector<size_t>> succ(n), pred(n);
  for (size_t a = 0; a < n; ++a) {
    for (uint32_t b : below[a].ToVector()) {
      if (!below[a].Intersects(above[b])) {
        succ[a].push_back(b);
        pred[b].push_back(a);
      }
    }
  }

  // Canonical assembly: Kahn's sort, FIFO, ready nodes seeded by index.
  std::vector<size_t> indegree(n);
  std::vector<size_t> order;
  for (size_t i = 0; i < n; ++i) {
    indegree[i] = pred[i].size();
    if (indegree[i] == 0) order.push_back(i);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (size_t v : succ[order[head]]) {
      if (--indegree[v] == 0) order.push_back(v);
    }
  }
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;

  SubsumptionGraph graph;
  graph.nodes.resize(n);
  graph.successors.resize(n);
  graph.predecessors.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t old = order[i];
    graph.nodes[i] = ids[old];
    for (size_t s : succ[old]) graph.successors[i].push_back(position[s]);
    for (size_t p : pred[old]) graph.predecessors[i].push_back(position[p]);
    std::sort(graph.successors[i].begin(), graph.successors[i].end());
    std::sort(graph.predecessors[i].begin(), graph.predecessors[i].end());
    if (graph.predecessors[i].empty()) {
      graph.predecessors[i].push_back(SubsumptionGraph::kUniversalNode);
      graph.sources.push_back(i);
    }
  }
  return graph;
}

}  // namespace testing
}  // namespace hirel

#endif  // HIREL_TESTS_REFERENCE_SUBSUMPTION_H_
