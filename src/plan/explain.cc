#include "plan/explain.h"

#include <cmath>
#include <cstdio>

#include "common/str_util.h"

namespace hirel {
namespace plan {
namespace {

std::string JoinCondition(const PlanNode& node) {
  const Schema& ls = node.children[0]->schema;
  const Schema& rs = node.children[1]->schema;
  std::string out;
  for (size_t k = 0; k < node.join_on.size(); ++k) {
    if (k > 0) out += ", ";
    const auto& [li, ri] = node.join_on[k];
    if (li < ls.size() && ri < rs.size()) {
      out += StrCat(ls.name(li), " = ", rs.name(ri));
    } else {
      out += StrCat("#", li, " = #", ri);
    }
  }
  return out;
}

std::string PositionNames(const Schema& schema,
                          const std::vector<size_t>& positions) {
  std::string out;
  for (size_t k = 0; k < positions.size(); ++k) {
    if (k > 0) out += ", ";
    out += positions[k] < schema.size() ? schema.name(positions[k])
                                        : StrCat("#", positions[k]);
  }
  return out;
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

void Render(const PlanNode& node, size_t depth, const ExecStats* exec,
            std::string& out) {
  out.append(2 * depth, ' ');
  out += DescribeNode(node);
  if (node.annotated) {
    out += StrCat("  ", node.schema.ToString());
    if (node.op == PlanOp::kScan) {
      out += StrCat("  rows=", static_cast<size_t>(node.est_rows));
    } else {
      out += StrCat("  ~rows=", static_cast<size_t>(std::llround(
                                    std::max(node.est_rows, 0.0))));
    }
    out += StrCat(" cost=", static_cast<size_t>(std::llround(
                                std::max(node.est_cost, 0.0))));
  }
  if (exec != nullptr) {
    auto it = exec->per_node.find(&node);
    if (it != exec->per_node.end()) {
      const PlanNodeStats& ns = it->second;
      out += StrCat("  [actual rows=", ns.rows_out, " time=",
                    FormatMs(ns.wall_ns), "ms wait_ns=", ns.wait_ns,
                    " probes=", ns.subsumption_probes);
      if (ns.graph_cache_hits + ns.graph_cache_misses > 0) {
        out += StrCat(" graph_cache=", ns.graph_cache_hits, "/",
                      ns.graph_cache_hits + ns.graph_cache_misses, " hit");
        if (ns.cache_outcome == SubsumptionCache::GetOutcome::kPatched) {
          out += " patched=true";
        } else if (ns.cache_outcome == SubsumptionCache::GetOutcome::kRebuilt) {
          out += " patched=false";
        }
      }
      if (node.op == PlanOp::kAggregate) {
        out += StrCat(" rows_in=", ns.rows_in);
      }
      if (ns.virtual_scan) {
        out += " virtual=true";
      }
      out += "]";
    }
  }
  out += "\n";
  for (const PlanPtr& child : node.children) {
    Render(*child, depth + 1, exec, out);
  }
}

}  // namespace

std::string DescribeNode(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kScan:
      return StrCat("Scan ", node.relation);
    case PlanOp::kSelect:
      return StrCat("Select ", node.attr_name, " within ", node.node_name);
    case PlanOp::kSelectWhere:
      return StrCat("SelectWhere ", node.predicate_desc);
    case PlanOp::kProject:
      return StrCat(
          "Project [",
          node.children.empty()
              ? PositionNames(Schema(), node.positions)
              : PositionNames(node.children[0]->schema, node.positions),
          "]");
    case PlanOp::kRename: {
      std::string out = "Rename ";
      for (size_t k = 0; k < node.renames.size(); ++k) {
        if (k > 0) out += ", ";
        out += StrCat(node.renames[k].first, " -> ", node.renames[k].second);
      }
      return out;
    }
    case PlanOp::kJoin:
      if (node.join_resolved && node.join_on.empty()) return "Join (product)";
      if (!node.join_resolved) return "Join (natural)";
      return StrCat("Join on (", JoinCondition(node), ")");
    case PlanOp::kProduct:
      return "Product";
    case PlanOp::kSetOp:
      switch (node.setop) {
        case SetOpKind::kUnion:
          return "Union";
        case SetOpKind::kIntersect:
          return "Intersect";
        case SetOpKind::kExcept:
          return "Difference";
      }
      return "SetOp";
    case PlanOp::kConsolidate:
      return "Consolidate";
    case PlanOp::kExplicate: {
      std::string out = "Explicate";
      if (node.positions.empty()) {
        out += " [all]";
      } else if (!node.children.empty()) {
        out += StrCat(" [",
                      PositionNames(node.children[0]->schema, node.positions),
                      "]");
      }
      if (node.consolidate_after) out += " +consolidate";
      return out;
    }
    case PlanOp::kAggregate:
      if (node.aggregate == AggregateOp::kCount) return "Count";
      return StrCat("CountBy ", node.attr_name);
  }
  return "?";
}

namespace {

void HashPlan(const PlanNode& node, uint64_t& h) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (char c : DescribeNode(node)) {
    h = (h ^ static_cast<unsigned char>(c)) * kPrime;
  }
  h = (h ^ '(') * kPrime;
  for (const PlanPtr& child : node.children) HashPlan(*child, h);
  h = (h ^ ')') * kPrime;
}

}  // namespace

std::string PlanDigest(const PlanNode& root) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  HashPlan(root, h);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string ExplainPlanTree(const PlanNode& root, const RewriteStats* stats) {
  std::string out;
  if (stats != nullptr) {
    out += StrCat("rewrites: selections pushed=", stats->selections_pushed,
                  ", consolidates eliminated=",
                  stats->consolidates_eliminated,
                  ", explicate fusions=", stats->explicate_fusions,
                  ", projections pruned=", stats->projections_pruned, "\n");
  }
  Render(root, 0, nullptr, out);
  return out;
}

std::string ExplainAnalyzeTree(const PlanNode& root, const ExecStats& exec,
                               const RewriteStats* stats) {
  std::string out;
  if (stats != nullptr) {
    out += StrCat("rewrites: selections pushed=", stats->selections_pushed,
                  ", consolidates eliminated=",
                  stats->consolidates_eliminated,
                  ", explicate fusions=", stats->explicate_fusions,
                  ", projections pruned=", stats->projections_pruned, "\n");
  }
  Render(root, 0, &exec, out);
  out += StrCat("totals: nodes=", exec.nodes_executed, " probes=",
                exec.subsumption_probes, " graph_cache_hits=",
                exec.graph_cache_hits, " graph_cache_misses=",
                exec.graph_cache_misses, " graph_patched=",
                exec.graph_cache_patched, " wait_ns=", exec.wait_ns, "\n");
  return out;
}

}  // namespace plan
}  // namespace hirel
