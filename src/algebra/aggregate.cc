#include "algebra/aggregate.h"

#include <algorithm>
#include <unordered_set>

#include "common/bitset.h"
#include "common/str_util.h"
#include "obs/query_stats.h"

namespace hirel {

namespace {

/// Sets the bit of every node under `n`, n included. Bits already set
/// prune the walk, so nodes shared by several calls are walked once.
void MarkDescendants(const Hierarchy& h, NodeId n, DynamicBitset* marks) {
  if (!h.alive(n) || marks->Test(n)) return;
  marks->Set(n);
  std::vector<NodeId> stack{n};
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    for (NodeId y : h.Children(x)) {
      if (marks->Test(y)) continue;
      marks->Set(y);
      stack.push_back(y);
    }
  }
}

/// The claim sweep: calls `on_claim(atom, truth)` once for every atom a
/// full Explicate of `relation` would insert, with the truth value of the
/// tuple that claims it.
///
/// Graph positions are swept from last to first, as Explicate visits
/// them, so the first tuple to reach an atom claims it. An atomic tuple
/// always claims its own item: every tuple whose item subsumes it binds
/// above it, so it precedes it in the graph and is swept later. Class
/// tuples skip the atoms a visited set already holds:
///  * One attribute: a bitset over the hierarchy's node ids, marking the
///    nodes whose atoms are all claimed. A swept tuple's node is marked,
///    and so is every node a class tuple's walk reaches, since the walk
///    claims all atoms under it. The walk from a class tuple's node
///    stops at marked nodes and claims the unmarked instances it
///    reaches. Each node is walked at most once per sweep.
///  * More attributes: AtomsUnder per attribute, enumerated in odometer
///    order (a class without instances denotes nothing), and a hash set
///    of the atoms claimed by class tuples. Atoms claimed by atomic
///    tuples are found through the store's item index instead.
///
/// Errors match Explicate's: a claim past `options.max_rows` fails with
/// kResourceExhausted, and an atom holding a dead instance fails as the
/// insert into the explicated relation would. Within one tuple the claims
/// may come in another order than Explicate's. The count, and which of
/// the two errors fires first, do not depend on that order.
template <typename OnClaim>
Status SweepClaims(const HierarchicalRelation& relation,
                   const AggregateOptions& options, OnClaim&& on_claim) {
  const Schema& schema = relation.schema();
  const size_t arity = schema.size();
  SubsumptionGraph local;
  if (options.graph == nullptr) local = BuildSubsumptionGraph(relation);
  const SubsumptionGraph& graph =
      options.graph != nullptr ? *options.graph : local;

  const bool unary = arity == 1;
  DynamicBitset done(unary ? schema.hierarchy(0)->dag().capacity() : 0);
  std::unordered_set<Item, ItemHash> claimed_items;
  obs::ScopedAllocTracking tracked(done.num_words() * sizeof(uint64_t));

  AggregateStats stats;
  // Reports the counters, and the hash set's footprint to the tracked
  // peak: the bucket array plus one node (link, cached hash, Item and its
  // heap block) per atom. An empty set has allocated nothing.
  auto finish = [&](Status status) {
    if (!claimed_items.empty()) {
      tracked.Grow(claimed_items.bucket_count() * sizeof(void*) +
                   claimed_items.size() * (2 * sizeof(void*) + sizeof(Item) +
                                           arity * sizeof(NodeId)));
    }
    if (options.stats != nullptr) *options.stats = stats;
    return status;
  };

  Item atom(arity);
  // Claims `atom` for a tuple of truth `truth` whose attribute `dead`
  // holds a dead instance (`arity` if none).
  auto claim = [&](Truth truth, size_t dead) -> Status {
    if (stats.claimed >= options.max_rows) {
      return Status::ResourceExhausted(
          StrCat("explication of '", relation.name(), "' exceeds ",
                 options.max_rows, " tuples"));
    }
    if (dead < arity) {
      return Status::InvalidArgument(
          StrCat("relation '", relation.name(), "_explicated': attribute '",
                 schema.name(dead), "' references dead node ", atom[dead]));
    }
    ++stats.claimed;
    on_claim(atom, truth);
    return Status::OK();
  };

  std::vector<NodeId> stack;
  std::vector<std::vector<NodeId>> choices(arity);
  std::vector<size_t> idx(arity);
  for (size_t r = graph.nodes.size(); r-- > 0;) {
    TupleView t = relation.tuple(graph.nodes[r]);
    ++stats.tuples;
    if (unary) {
      const Hierarchy& h = *schema.hierarchy(0);
      const NodeId n = t.item[0];
      if (h.is_instance(n)) {
        ++stats.atoms;
        done.Set(n);
        atom[0] = n;
        Status status = claim(t.truth, h.alive(n) ? arity : 0);
        if (!status.ok()) return finish(status);
        continue;
      }
      if (!h.alive(n) || done.Test(n)) continue;
      done.Set(n);
      stack.assign(1, n);
      while (!stack.empty()) {
        NodeId x = stack.back();
        stack.pop_back();
        for (NodeId y : h.Children(x)) {
          if (done.Test(y)) continue;
          done.Set(y);
          if (h.is_class(y)) {
            stack.push_back(y);
            continue;
          }
          ++stats.atoms;
          atom[0] = y;
          Status status = claim(t.truth, arity);
          if (!status.ok()) return finish(status);
        }
      }
      continue;
    }

    bool atomic = true;
    bool empty = false;
    size_t dead = arity;  // first attribute holding a dead instance
    for (size_t i = 0; i < arity && !empty; ++i) {
      const Hierarchy* h = schema.hierarchy(i);
      const NodeId n = t.item[i];
      if (h->is_class(n)) {
        atomic = false;
        choices[i] = h->AtomsUnder(n);
        empty = choices[i].empty();
      } else {
        choices[i].assign(1, n);
        if (dead == arity && !h->alive(n)) dead = i;
      }
    }
    if (empty) continue;
    std::fill(idx.begin(), idx.end(), 0);
    while (true) {
      for (size_t i = 0; i < arity; ++i) atom[i] = choices[i][idx[i]];
      ++stats.atoms;
      // An atom holding a dead instance was never claimed: its claim is
      // the error.
      if (atomic || dead < arity ||
          (!relation.FindItem(atom).has_value() &&
           claimed_items.insert(atom).second)) {
        Status status = claim(t.truth, dead);
        if (!status.ok()) return finish(status);
      }
      size_t k = arity;
      while (k > 0 && ++idx[k - 1] == choices[k - 1].size()) idx[--k] = 0;
      if (k == 0) break;
    }
  }
  return finish(Status::OK());
}

}  // namespace

Result<size_t> CountExtension(const HierarchicalRelation& relation,
                              const AggregateOptions& options) {
  size_t count = 0;
  HIREL_RETURN_IF_ERROR(
      SweepClaims(relation, options, [&](const Item&, Truth truth) {
        if (truth == Truth::kPositive) ++count;
      }));
  return count;
}

Result<double> Aggregate(const HierarchicalRelation& relation, size_t attr,
                         AggregateKind kind,
                         const AggregateOptions& options) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("aggregate: attribute position ", attr, " out of range"));
  }
  // Values are folded in sorted extension order, as Extension() lists
  // them, so floating-point sums and the first non-numeric value reported
  // do not depend on the sweep order.
  std::vector<Item> rows;
  HIREL_RETURN_IF_ERROR(
      SweepClaims(relation, options, [&](const Item& atom, Truth truth) {
        if (truth == Truth::kPositive) rows.push_back(atom);
      }));
  if (rows.empty()) {
    if (kind == AggregateKind::kSum) return 0.0;
    return Status::InvalidArgument(
        "aggregate: avg/min/max over an empty extension");
  }
  std::sort(rows.begin(), rows.end());
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

Result<std::vector<RollUpRow>> RollUp(const HierarchicalRelation& relation,
                                      size_t attr,
                                      const std::vector<NodeId>& groups,
                                      const AggregateOptions& options) {
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
  // marks[g] holds the nodes under groups[g]; a claimed positive atom
  // counts once per group whose marks hold its attr component.
  std::vector<DynamicBitset> marks(groups.size(),
                                   DynamicBitset(h->dag().capacity()));
  for (size_t g = 0; g < groups.size(); ++g) {
    MarkDescendants(*h, groups[g], &marks[g]);
  }
  obs::ScopedAllocTracking tracked(
      marks.empty() ? 0
                    : marks.size() * marks[0].num_words() * sizeof(uint64_t));

  std::vector<RollUpRow> out;
  out.reserve(groups.size());
  for (NodeId group : groups) out.push_back({group, 0});
  HIREL_RETURN_IF_ERROR(
      SweepClaims(relation, options, [&](const Item& atom, Truth truth) {
        if (truth != Truth::kPositive) return;
        for (size_t g = 0; g < marks.size(); ++g) {
          if (marks[g].Test(atom[attr])) ++out[g].count;
        }
      }));
  return out;
}

Result<std::vector<RollUpRow>> RollUpTopLevel(
    const HierarchicalRelation& relation, size_t attr,
    const AggregateOptions& options) {
  const Schema& schema = relation.schema();
  if (attr >= schema.size()) {
    return Status::InvalidArgument(
        StrCat("rollup: attribute position ", attr, " out of range"));
  }
  const Hierarchy* h = schema.hierarchy(attr);
  return RollUp(relation, attr, h->Children(h->root()), options);
}

std::string RollUpToString(const HierarchicalRelation& relation, size_t attr,
                           const std::vector<RollUpRow>& rows) {
  const Hierarchy* h = relation.schema().hierarchy(attr);
  std::string out;
  for (const RollUpRow& row : rows) {
    out += StrCat("  ", h->NodeName(row.group), ": ", row.count, "\n");
  }
  return out;
}

}  // namespace hirel
