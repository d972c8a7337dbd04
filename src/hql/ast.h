// HQL abstract syntax tree.

#ifndef HIREL_HQL_AST_H_
#define HIREL_HQL_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "types/value.h"

namespace hirel {
namespace hql {

/// One term in a tuple pattern: `ALL bird`, `tweety`, `'tweety'`, or 3000.
struct Term {
  enum class Kind {
    kAll,      // ALL <class>: universal quantification over a class
    kName,     // bare identifier: an instance (or, failing that, a class)
    kLiteral,  // quoted string / number
  };
  Kind kind = Kind::kName;
  std::string name;  // for kAll / kName
  Value literal;     // for kLiteral
};

struct CreateHierarchyStmt {
  std::string name;
  bool keep_redundant_edges = false;  // CREATE HIERARCHY x ON PATH? (unused)
};

struct CreateClassStmt {
  std::string name;
  std::string hierarchy;
  std::vector<std::string> parents;  // empty: directly under the root
};

struct CreateInstanceStmt {
  Value value;
  std::string hierarchy;
  std::vector<std::string> parents;
};

struct CreateRelationStmt {
  std::string name;
  // (attribute name, hierarchy name)
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// CREATE RELATION x AS a UNION b / INTERSECT / EXCEPT / JOIN.
struct CreateAsStmt {
  enum class Op { kUnion, kIntersect, kExcept, kJoin };
  std::string name;
  Op op = Op::kUnion;
  std::string left;
  std::string right;
};

/// CREATE RELATION x AS PROJECT src ON (a, b).
struct CreateProjectStmt {
  std::string name;
  std::string source;
  std::vector<std::string> attributes;
};

/// CONNECT <parent> TO <child> IN <hierarchy>.
struct ConnectStmt {
  std::string parent;
  std::string child;
  std::string hierarchy;
};

/// PREFER <stronger> OVER <weaker> IN <hierarchy>.
struct PreferStmt {
  std::string stronger;
  std::string weaker;
  std::string hierarchy;
};

/// ASSERT / DENY / RETRACT rel(term, ...).
struct FactStmt {
  enum class Kind { kAssert, kDeny, kRetract };
  Kind kind = Kind::kAssert;
  std::string relation;
  std::vector<Term> terms;
};

/// SELECT * FROM rel [JOIN|UNION|INTERSECT|EXCEPT rel2] [WHERE attr = term].
struct SelectStmt {
  enum class SourceOp { kNone, kJoin, kUnion, kIntersect, kExcept };
  std::string relation;
  SourceOp source_op = SourceOp::kNone;
  std::string right;  // second source relation when source_op != kNone
  bool has_where = false;
  std::string attribute;
  Term term;
};

/// EXPLAIN rel(term, ...).
struct ExplainStmt {
  std::string relation;
  std::vector<Term> terms;
};

struct ConsolidateStmt {
  std::string relation;
};

/// EXPLICATE rel [ON (a, b)].
struct ExplicateStmt {
  std::string relation;
  std::vector<std::string> attributes;
};

/// EXTENSION rel.
struct ExtensionStmt {
  std::string relation;
};

struct ShowStmt {
  enum class What {
    kHierarchy,
    kRelation,
    kHierarchies,
    kRelations,
    kRules,
    kSubsumption,  // SHOW SUBSUMPTION rel: the Fig. 6a construction
    // The introspection SHOWs each render sys.* relations (FormatRelation,
    // or one JSON line per relation with JSON).
    kMetrics,      // SHOW METRICS [JSON|PROMETHEUS]: sys.metrics
    kTrace,        // SHOW TRACE [JSON]: the last query's span tree
    kLog,          // SHOW LOG [JSON]: sys.log
    kStorage,      // SHOW STORAGE [JSON]: sys.relations, then sys.columns
    kQueries,      // SHOW QUERIES [JSON]: sys.queries
    kTelemetry,    // SHOW TELEMETRY [JSON]: sys.metrics_history
    kAlerts,       // SHOW ALERTS [JSON]: sys.alerts
    kHealth,       // SHOW HEALTH [JSON]: sys.health
    kWaits,        // SHOW WAITS [JSON]: sys.waits
  };
  What what = What::kRelations;
  std::string name;
  bool json = false;        // JSON rendering, for kTrace and the sys.* kinds
  bool prometheus = false;  // Prometheus text exposition, for kMetrics
};

struct DropStmt {
  bool hierarchy = false;
  std::string name;
};

struct SaveStmt {
  std::string path;
};

struct LoadStmt {
  std::string path;
};

struct HelpStmt {};

/// COMPRESS rel: re-encode a single-attribute relation minimally
/// (Section 4's automatic hierarchical organisation).
struct CompressStmt {
  std::string relation;
};

/// BEGIN rel: start staging facts on `rel` into a transaction.
struct BeginStmt {
  std::string relation;
};

/// COMMIT: apply the staged facts atomically, checking consistency once.
struct CommitStmt {};

/// ABORT: discard the staged facts.
struct AbortStmt {};

/// SET PREEMPTION offpath|onpath|none.
struct SetPreemptionStmt {
  std::string mode;
};

/// RULE 'head(args) :- body.': register a Datalog rule.
struct RuleStmt {
  std::string text;
};

/// DERIVE: evaluate all registered rules to fixpoint.
struct DeriveStmt {};

/// SHOW BINDING rel(term, ...): the item's tuple-binding graph (Fig. 1d).
struct ShowBindingStmt {
  std::string relation;
  std::vector<Term> terms;
};

/// DROP CLASS c IN h / DROP INSTANCE v IN h: the paper's node-elimination
/// procedure, guarded against dangling tuple references.
struct EliminateStmt {
  std::string hierarchy;
  Term node;
};

/// COUNT rel [BY attr]: extension cardinality, optionally rolled up by the
/// top-level classes of one attribute's taxonomy.
struct CountStmt {
  std::string relation;
  bool by_attribute = false;
  std::string attribute;
};

/// EXPLAIN PLAN <query statement>: show the optimized logical plan the
/// query would execute, without executing it. Distinct from EXPLAIN
/// rel(terms), which justifies a tuple's truth value. The inner statement
/// is heap-allocated to break the recursion through Statement.
struct ExplainPlanStmt {
  std::shared_ptr<struct StatementBox> query;
  std::string text;  // source text of the inner statement, for display
  /// EXPLAIN ANALYZE: execute the plan and annotate each node with its
  /// actual rows / wall time / subsumption probes next to the estimates.
  bool analyze = false;
};

/// RESET METRICS: zero every metric (and the subsumption cache's stats).
struct ResetMetricsStmt {};

/// SET SLOW_QUERY_MS n: statements at least n ms of wall time are written
/// to the event log with their text, plan digest, and per-node actuals.
/// n = 0 logs every plan-running statement; a negative n turns it off.
struct SetSlowQueryStmt {
  int64_t threshold_ms = -1;
};

/// SET LOG debug|info|warn|error|off: minimum level of the global logger.
struct SetLogStmt {
  std::string level;
};

/// EXPORT TRACE 'file.json': write the last query's trace (plus captured
/// wait spans) as Chrome trace-event JSON.
struct ExportTraceStmt {
  std::string path;
};

/// SET INCREMENTAL ON|OFF: toggle incremental maintenance — the
/// subsumption-graph cache's journal patch path, delta consolidation, and
/// the DERIVE fixpoint's extension-append fast path. Results are identical
/// either way; OFF forces the from-scratch paths for A/B comparison.
struct SetIncrementalStmt {
  bool on = true;
};

/// SET TELEMETRY ON|OFF|INTERVAL n|TICK: control the background sampler
/// that records metric history into the sys.metrics_history rings. OFF
/// stops the thread entirely (zero query-path cost); INTERVAL n sets the
/// sample period in milliseconds without changing the on/off state; TICK
/// takes exactly one sample synchronously (deterministic alert
/// evaluation for scripts and tests, no thread required).
struct SetTelemetryStmt {
  enum class Mode { kOn, kOff, kInterval, kTick };
  Mode mode = Mode::kOn;
  int64_t interval_ms = 0;  // for kInterval
};

/// CREATE ALERT name ON metric <op> threshold [FOR n SAMPLES]
/// [SEVERITY info|warn|crit]: register an alert rule evaluated on every
/// telemetry tick against the sampled metric rings.
struct CreateAlertStmt {
  std::string name;
  std::string metric;
  std::string op = ">";  // ">", "<", ">=", "<=", "="
  int64_t threshold = 0;
  int64_t for_samples = 1;
  std::string severity = "warn";
};

/// DROP ALERT name (built-in watchdog rules refuse).
struct DropAlertStmt {
  std::string name;
};

/// EXPORT DIAGNOSTICS 'file.json': write the one-shot postmortem bundle.
struct ExportDiagnosticsStmt {
  std::string path;
};

/// SET DIAGNOSTICS_DIR 'dir'|OFF: auto-capture a diagnostics bundle into
/// `dir` (at most once per firing alert); OFF disables.
struct SetDiagnosticsDirStmt {
  std::string dir;  // empty = OFF
};

/// SET WATCHDOG_QUERY_MS n|OFF: wall-time budget for the built-in
/// slow-query watchdog alert; negative (OFF) disables it.
struct SetWatchdogStmt {
  int64_t query_budget_ms = -1;
};

using Statement =
    std::variant<CreateHierarchyStmt, CreateClassStmt, CreateInstanceStmt,
                 CreateRelationStmt, CreateAsStmt, CreateProjectStmt,
                 ConnectStmt, PreferStmt, FactStmt, SelectStmt, ExplainStmt,
                 ConsolidateStmt, ExplicateStmt, ExtensionStmt, ShowStmt,
                 DropStmt, SaveStmt, LoadStmt, HelpStmt, CompressStmt,
                 BeginStmt, CommitStmt, AbortStmt, SetPreemptionStmt,
                 RuleStmt, DeriveStmt, CountStmt, ShowBindingStmt,
                 EliminateStmt, ExplainPlanStmt,
                 ResetMetricsStmt, SetSlowQueryStmt, SetLogStmt,
                 ExportTraceStmt, SetIncrementalStmt, SetTelemetryStmt,
                 CreateAlertStmt, DropAlertStmt, ExportDiagnosticsStmt,
                 SetDiagnosticsDirStmt, SetWatchdogStmt>;

/// Holder making the Statement variant usable inside ExplainPlanStmt.
struct StatementBox {
  Statement statement;
};

}  // namespace hql
}  // namespace hirel

#endif  // HIREL_HQL_AST_H_
