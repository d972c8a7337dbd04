#include "hql/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "algebra/join.h"
#include "algebra/aggregate.h"
#include "algebra/justify.h"
#include "algebra/project.h"
#include "algebra/select.h"
#include "algebra/setops.h"
#include "common/str_util.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "core/integrity.h"
#include "core/subsumption.h"
#include "extensions/compress.h"
#include "plan/execute.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "plan/rewrite.h"
#include "rules/rule.h"
#include "hql/lexer.h"
#include "hql/parser.h"
#include "hql/printer.h"
#include "hql/resolve.h"
#include "io/snapshot.h"
#include "io/text_dump.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/query_stats.h"
#include "obs/sys_catalog.h"

namespace hirel {
namespace hql {

namespace {

/// Span name of one statement in the query trace.
struct TraceName {
  const char* operator()(const CreateHierarchyStmt&) const {
    return "create hierarchy";
  }
  const char* operator()(const CreateClassStmt&) const {
    return "create class";
  }
  const char* operator()(const CreateInstanceStmt&) const {
    return "create instance";
  }
  const char* operator()(const CreateRelationStmt&) const {
    return "create relation";
  }
  const char* operator()(const CreateAsStmt&) const { return "create as"; }
  const char* operator()(const CreateProjectStmt&) const {
    return "create project";
  }
  const char* operator()(const ConnectStmt&) const { return "connect"; }
  const char* operator()(const PreferStmt&) const { return "prefer"; }
  const char* operator()(const FactStmt& stmt) const {
    switch (stmt.kind) {
      case FactStmt::Kind::kAssert:
        return "assert";
      case FactStmt::Kind::kDeny:
        return "deny";
      case FactStmt::Kind::kRetract:
        return "retract";
    }
    return "fact";
  }
  const char* operator()(const SelectStmt&) const { return "select"; }
  const char* operator()(const ExplainStmt&) const { return "explain"; }
  const char* operator()(const ConsolidateStmt&) const {
    return "consolidate";
  }
  const char* operator()(const ExplicateStmt&) const { return "explicate"; }
  const char* operator()(const ExtensionStmt&) const { return "extension"; }
  const char* operator()(const ShowStmt&) const { return "show"; }
  const char* operator()(const DropStmt&) const { return "drop"; }
  const char* operator()(const SaveStmt&) const { return "save"; }
  const char* operator()(const LoadStmt&) const { return "load"; }
  const char* operator()(const HelpStmt&) const { return "help"; }
  const char* operator()(const CompressStmt&) const { return "compress"; }
  const char* operator()(const BeginStmt&) const { return "begin"; }
  const char* operator()(const CommitStmt&) const { return "commit"; }
  const char* operator()(const AbortStmt&) const { return "abort"; }
  const char* operator()(const SetPreemptionStmt&) const {
    return "set preemption";
  }
  const char* operator()(const RuleStmt&) const { return "rule"; }
  const char* operator()(const DeriveStmt&) const { return "derive"; }
  const char* operator()(const CountStmt&) const { return "count"; }
  const char* operator()(const ShowBindingStmt&) const {
    return "show binding";
  }
  const char* operator()(const EliminateStmt&) const { return "eliminate"; }
  const char* operator()(const ExplainPlanStmt& stmt) const {
    return stmt.analyze ? "explain analyze" : "explain plan";
  }
  const char* operator()(const ResetMetricsStmt&) const {
    return "reset metrics";
  }
  const char* operator()(const SetSlowQueryStmt&) const {
    return "set slow_query_ms";
  }
  const char* operator()(const SetLogStmt&) const { return "set log"; }
  const char* operator()(const ExportTraceStmt&) const {
    return "export trace";
  }
  const char* operator()(const SetTelemetryStmt&) const {
    return "set telemetry";
  }
  const char* operator()(const CreateAlertStmt&) const {
    return "create alert";
  }
  const char* operator()(const DropAlertStmt&) const { return "drop alert"; }
  const char* operator()(const ExportDiagnosticsStmt&) const {
    return "export diagnostics";
  }
  const char* operator()(const SetDiagnosticsDirStmt&) const {
    return "set diagnostics_dir";
  }
  const char* operator()(const SetWatchdogStmt&) const {
    return "set watchdog_query_ms";
  }
};

/// The introspection SHOWs: `SHOW <what> [JSON]` renders these sys.*
/// relations in order, exactly as SHOW RELATION would (null = no more).
struct SysShow {
  ShowStmt::What what;
  const char* relations[2];
};

constexpr SysShow kSysShows[] = {
    {ShowStmt::What::kMetrics, {"sys.metrics"}},
    {ShowStmt::What::kLog, {"sys.log"}},
    {ShowStmt::What::kQueries, {"sys.queries"}},
    {ShowStmt::What::kTelemetry, {"sys.metrics_history"}},
    {ShowStmt::What::kAlerts, {"sys.alerts"}},
    {ShowStmt::What::kHealth, {"sys.health"}},
    {ShowStmt::What::kWaits, {"sys.waits"}},
    {ShowStmt::What::kStorage, {"sys.relations", "sys.columns"}},
};

const SysShow* FindSysShow(ShowStmt::What what) {
  for (const SysShow& show : kSysShows) {
    if (show.what == what) return &show;
  }
  return nullptr;
}

/// Statements whose traces are worth keeping. SHOW TRACE, the
/// introspection SHOWs, RESET METRICS and the exports are excluded so that
/// inspecting or exporting the last query does not overwrite its trace.
bool TraceWorthy(const Statement& statement) {
  if (std::holds_alternative<ResetMetricsStmt>(statement)) return false;
  if (std::holds_alternative<ExportTraceStmt>(statement)) return false;
  if (std::holds_alternative<ExportDiagnosticsStmt>(statement)) return false;
  if (const auto* show = std::get_if<ShowStmt>(&statement)) {
    return show->what != ShowStmt::What::kTrace &&
           FindSysShow(show->what) == nullptr;
  }
  return true;
}

/// Times a plan compilation under a "plan" span.
template <typename Compile>
Result<plan::PlanPtr> CompileWithSpan(obs::Trace* trace, Compile&& compile) {
  obs::Trace::Scope span(trace, "plan");
  return compile();
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::string NsToMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

/// Per-node actuals in plan order, one compact clause per executed node:
/// "Scan r: rows=5 ms=0.012; Join on (...): rows=3 ms=0.104".
void AppendNodeActuals(const plan::PlanNode& node,
                       const plan::ExecStats& stats, std::string& out) {
  auto it = stats.per_node.find(&node);
  if (it != stats.per_node.end()) {
    if (!out.empty()) out += "; ";
    out += StrCat(plan::DescribeNode(node), ": rows=", it->second.rows_out,
                  " ms=", NsToMs(it->second.wall_ns));
  }
  for (const plan::PlanPtr& child : node.children) {
    AppendNodeActuals(*child, stats, out);
  }
}

/// Writes one slow-query event: statement text, plan digest, totals, and
/// per-node actuals. Callers check the threshold first.
void LogSlowQuery(Database& db, const std::string& text,
                  const plan::PlanNode& root, const plan::ExecStats& stats,
                  uint64_t ns) {
  db.metrics().counter("query.slow_queries").Add();
  std::string nodes;
  AppendNodeActuals(root, stats, nodes);
  // Split the wall time into attributed wait vs execute so the log says
  // whether a slow statement was working or waiting. The attributed-wait
  // counter is process-wide, so waits on other threads can exceed this
  // statement's wall clock; clamp at zero.
  const uint64_t wait_ns = stats.wait_ns > ns ? ns : stats.wait_ns;
  HIREL_LOG(obs::LogLevel::kWarn, "query", "slow_query",
            {{"text", text},
             {"digest", plan::PlanDigest(root)},
             {"ms", NsToMs(ns)},
             {"wait_ms", NsToMs(wait_ns)},
             {"exec_ms", NsToMs(ns - wait_ns)},
             {"nodes_executed", StrCat(stats.nodes_executed)},
             {"probes", StrCat(stats.subsumption_probes)},
             {"nodes", nodes}});
}

}  // namespace

Result<std::string> Executor::Execute(std::string_view source) {
  obs::Trace trace;
  std::vector<std::string> texts;
  Result<std::vector<Statement>> parsed = [&]() {
    std::vector<Token> tokens;
    {
      obs::Trace::Scope span(&trace, "lex");
      Result<std::vector<Token>> lexed = Tokenize(source);
      if (!lexed.ok()) return Result<std::vector<Statement>>(lexed.status());
      tokens = std::move(*lexed);
    }
    obs::Trace::Scope span(&trace, "parse");
    return ParseTokens(std::move(tokens), &texts);
  }();
  HIREL_RETURN_IF_ERROR(parsed.status());

  active_trace_ = &trace;
  obs::WaitEventRegistry::Global().StartCapture();
  bool keep_trace = false;
  std::string output;
  Status failure = Status::OK();
  for (size_t i = 0; i < parsed->size(); ++i) {
    const Statement& statement = (*parsed)[i];
    db_->metrics().counter("query.statements").Add();
    keep_trace = keep_trace || TraceWorthy(statement);
    current_statement_text_ = i < texts.size() ? texts[i] : std::string();
    Result<std::string> part = [&]() {
      obs::Trace::Scope span(&trace, std::visit(TraceName{}, statement));
      return ExecuteTracked(statement);
    }();
    if (!part.ok()) {
      db_->metrics().counter("query.errors").Add();
      failure = part.status();
      break;
    }
    output += *part;
  }
  active_trace_ = nullptr;
  current_statement_text_.clear();
  std::vector<obs::WaitEventRegistry::WaitSpan> waits =
      obs::WaitEventRegistry::Global().StopCapture();
  if (keep_trace) {
    trace_ = std::move(trace);
    wait_spans_ = std::move(waits);
  }
  HIREL_RETURN_IF_ERROR(failure);
  return output;
}

Result<std::string> Executor::ExecuteStatement(const Statement& statement) {
  if (active_trace_ != nullptr) return ExecuteTracked(statement);
  obs::Trace trace;
  active_trace_ = &trace;
  obs::WaitEventRegistry::Global().StartCapture();
  db_->metrics().counter("query.statements").Add();
  Result<std::string> result = [&]() {
    obs::Trace::Scope span(&trace, std::visit(TraceName{}, statement));
    return ExecuteTracked(statement);
  }();
  active_trace_ = nullptr;
  std::vector<obs::WaitEventRegistry::WaitSpan> waits =
      obs::WaitEventRegistry::Global().StopCapture();
  if (!result.ok()) db_->metrics().counter("query.errors").Add();
  if (TraceWorthy(statement)) {
    trace_ = std::move(trace);
    wait_spans_ = std::move(waits);
  }
  return result;
}

void Executor::InstallSystemCatalog() {
  // Re-target the sampler before registering providers: after LOAD the old
  // registry is about to be destroyed with the old database, and the
  // sampler thread must never sample a stale pointer. The alert manager is
  // re-pointed first so a tick between the two writes sees a consistent
  // (new-registry) view.
  alerts_.Configure(&db_->metrics(), &history_);
  telemetry_.SetRegistry(&db_->metrics());
  telemetry_.SetAlertManager(&alerts_);
  obs::RegisterSystemCatalog(*db_, &history_, &telemetry_, &alerts_,
                             [this] { return SessionSettings(); });
}

std::vector<obs::SessionSetting> Executor::SessionSettings() const {
  auto num = [](auto v) { return Value::Int(static_cast<int64_t>(v)); };
  auto on_off = [](bool on) { return Value::String(on ? "on" : "off"); };
  std::string dir = alerts_.diagnostics_dir();
  return {
      {"preemption",
       Value::String(PreemptionModeToString(options_.preemption))},
      {"telemetry", on_off(telemetry_.running())},
      {"telemetry_interval_ms", num(telemetry_.interval_ms())},
      {"telemetry_ticks", num(telemetry_.ticks())},
      {"telemetry_ring_capacity", num(telemetry_.ring_capacity())},
      {"slow_query_ms", num(slow_query_ms_)},
      {"diagnostics_dir", Value::String(dir.empty() ? "off" : dir)},
      {"watchdog_query_ms", num(alerts_.watchdog().query_budget_ms)},
  };
}

Result<std::string> Executor::ExecuteTracked(const Statement& statement) {
  pending_ = PendingPlanStats{};
  obs::ResetTrackedPeak();
  const uint64_t wait_mark =
      obs::WaitEventRegistry::Global().attributed_wait_ns();
  auto start = std::chrono::steady_clock::now();
  Result<std::string> result = ExecuteStatementImpl(statement);
  uint64_t ns = ElapsedNs(start);
  const uint64_t wait_ns =
      obs::WaitEventRegistry::Global().attributed_wait_ns() - wait_mark;
  obs::QueryStats stats;
  stats.id = next_query_id_++;
  stats.kind = std::visit(TraceName{}, statement);
  stats.statement =
      current_statement_text_.empty() ? stats.kind : current_statement_text_;
  stats.ok = result.ok();
  stats.wall_ns = ns == 0 ? 1 : ns;
  stats.wait_ns = wait_ns;
  stats.rows_in = pending_.rows_in;
  stats.rows_out = pending_.rows_out;
  stats.subsumption_probes = pending_.subsumption_probes;
  stats.peak_tracked_bytes = obs::TrackedPeakBytes();
  stats.plan_digest = pending_.digest;
  history_.Append(std::move(stats));
  DrainAlertCaptures();
  return result;
}

Result<std::string> Executor::WriteDiagnostics(const std::string& path,
                                               const std::string& cause) {
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string json =
      StrCat("{\"format\":2,\"engine\":\"hirel\",\"captured_unix_ms\":",
             now_ms, ",\"cause\":");
  obs::AppendJsonString(json, cause);
  for (const std::string& name : db_->VirtualRelationNames()) {
    VirtualRelationProvider* provider = db_->FindVirtualRelation(name);
    if (provider == nullptr) continue;
    HIREL_ASSIGN_OR_RETURN(HierarchicalRelation relation,
                           provider->Materialize());
    json += ",";
    obs::AppendJsonString(json, name);
    json += StrCat(":", FormatRelationJson(relation));
  }
  json += "}";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError(StrCat("cannot open '", path, "' for writing"));
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::IoError(StrCat("short write to '", path, "'"));
  }
  HIREL_LOG(obs::LogLevel::kInfo, "diag", "export",
            {{"path", path},
             {"cause", cause},
             {"bytes", StrCat(json.size())}});
  return StrCat("exported diagnostics to '", path, "' (", json.size(),
                " bytes)\n");
}

void Executor::DrainAlertCaptures() {
  for (const obs::AlertManager::CaptureRequest& req :
       alerts_.TakePendingCaptures()) {
    std::string path =
        StrCat(req.dir, "/diag.", req.alert, ".", req.seq, ".json");
    Result<std::string> bundle =
        WriteDiagnostics(path, StrCat("alert:", req.alert));
    if (!bundle.ok()) {
      // A failed capture must not fail the statement that drained it.
      HIREL_LOG(obs::LogLevel::kWarn, "diag", "capture_failed",
                {{"alert", req.alert},
                 {"path", path},
                 {"error", bundle.status().message()}});
    }
  }
}

Result<std::string> Executor::ExecuteStatementImpl(
    const Statement& statement) {
  struct Visitor {
    Executor& self;
    Database& db;

    /// Update statements name a stored relation; a sys.* name gets this
    /// clearer refusal instead of the NotFound a catalog lookup would give.
    static Status RejectSysWrite(const std::string& relation) {
      if (!Database::IsSysName(relation)) return Status::OK();
      return Status::InvalidArgument(
          StrCat("relation '", relation,
                 "' is a read-only system relation"));
    }

    /// Folds one plan execution's stats into the engine metrics.
    void RecordPlanMetrics(const plan::ExecStats& stats, uint64_t ns) {
      obs::MetricsRegistry& m = db.metrics();
      m.counter("query.plans_executed").Add();
      m.counter("plan.nodes_executed").Add(stats.nodes_executed);
      m.counter("plan.graph_cache_hits").Add(stats.graph_cache_hits);
      m.counter("plan.graph_cache_misses").Add(stats.graph_cache_misses);
      m.counter("plan.subsumption_probes").Add(stats.subsumption_probes);
      m.histogram("query.execute_ns").Record(ns);
    }

    /// Optimizes and executes a compiled query plan: rewrite to a
    /// fixpoint, re-annotate, run with the database's subsumption cache.
    Result<plan::PlanOutput> RunPlan(plan::PlanPtr compiled) {
      {
        obs::Trace::Scope span(self.active_trace_, "rewrite");
        HIREL_ASSIGN_OR_RETURN(compiled,
                               plan::RewritePlan(std::move(compiled), db));
      }
      plan::ExecOptions exec;
      exec.inference = self.options_;
      exec.trace = self.active_trace_;
      // Arming the slow-query log collects per-node actuals for every
      // plan, so a statement that crosses the threshold can be logged
      // with the breakdown that explains it.
      const bool slow_log_armed = self.slow_query_ms_ >= 0;
      exec.collect_node_stats = slow_log_armed;
      plan::ExecStats stats;
      obs::Trace::Scope span(self.active_trace_, "execute");
      auto start = std::chrono::steady_clock::now();
      Result<plan::PlanOutput> out =
          plan::ExecutePlan(*compiled, db, exec, &stats);
      uint64_t ns = ElapsedNs(start);
      span.Note("nodes", stats.nodes_executed);
      span.Note("probes", stats.subsumption_probes);
      RecordPlanMetrics(stats, ns);
      self.pending_.subsumption_probes += stats.subsumption_probes;
      self.pending_.rows_in += stats.rows_scanned;
      self.pending_.digest = plan::PlanDigest(*compiled);
      if (out.ok()) {
        if (out->relation.has_value()) {
          self.pending_.rows_out += out->relation->size();
        } else if (out->rollup.has_value()) {
          self.pending_.rows_out += out->rollup->size();
        } else if (out->count.has_value()) {
          self.pending_.rows_out += 1;
        }
      }
      if (out.ok() && slow_log_armed &&
          ns >= static_cast<uint64_t>(self.slow_query_ms_) * 1'000'000) {
        LogSlowQuery(db, self.current_statement_text_, *compiled, stats, ns);
      }
      return out;
    }

    Result<std::string> operator()(const CreateHierarchyStmt& stmt) {
      HierarchyOptions options;
      options.keep_redundant_edges = stmt.keep_redundant_edges;
      HIREL_RETURN_IF_ERROR(db.CreateHierarchy(stmt.name, options).status());
      return StrCat("created hierarchy '", stmt.name, "'\n");
    }

    Result<std::string> operator()(const CreateClassStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(stmt.hierarchy));
      NodeId node = kInvalidNode;
      if (stmt.parents.empty()) {
        HIREL_ASSIGN_OR_RETURN(node, h->AddClass(stmt.name));
      } else {
        for (size_t i = 0; i < stmt.parents.size(); ++i) {
          HIREL_ASSIGN_OR_RETURN(NodeId parent,
                                 h->FindClass(stmt.parents[i]));
          if (i == 0) {
            HIREL_ASSIGN_OR_RETURN(node, h->AddClass(stmt.name, parent));
          } else {
            HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
          }
        }
      }
      return StrCat("created class '", stmt.name, "' in '", stmt.hierarchy,
                    "'\n");
    }

    Result<std::string> operator()(const CreateInstanceStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(stmt.hierarchy));
      NodeId node = kInvalidNode;
      if (stmt.parents.empty()) {
        HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(stmt.value));
      } else {
        for (size_t i = 0; i < stmt.parents.size(); ++i) {
          HIREL_ASSIGN_OR_RETURN(NodeId parent,
                                 h->FindClass(stmt.parents[i]));
          if (i == 0) {
            HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(stmt.value, parent));
          } else {
            HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
          }
        }
      }
      return StrCat("created instance '", stmt.value.ToString(), "' in '",
                    stmt.hierarchy, "'\n");
    }

    Result<std::string> operator()(const CreateRelationStmt& stmt) {
      HIREL_RETURN_IF_ERROR(
          db.CreateRelation(stmt.name, stmt.attributes).status());
      return StrCat("created relation '", stmt.name, "'\n");
    }

    Result<std::string> operator()(const CreateAsStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileCreateAs(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      out.relation->set_name(stmt.name);
      HIREL_RETURN_IF_ERROR(
          db.AdoptRelation(std::move(*out.relation)).status());
      return StrCat("created relation '", stmt.name, "'\n");
    }

    Result<std::string> operator()(const CreateProjectStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileCreateProject(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      out.relation->set_name(stmt.name);
      HIREL_RETURN_IF_ERROR(
          db.AdoptRelation(std::move(*out.relation)).status());
      return StrCat("created relation '", stmt.name, "'\n");
    }

    Result<std::string> operator()(const ConnectStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(stmt.hierarchy));
      HIREL_ASSIGN_OR_RETURN(NodeId parent, h->FindByName(stmt.parent));
      HIREL_ASSIGN_OR_RETURN(NodeId child, h->FindByName(stmt.child));
      HIREL_RETURN_IF_ERROR(h->AddEdge(parent, child));
      return StrCat("connected '", stmt.parent, "' -> '", stmt.child,
                    "' in '", stmt.hierarchy, "'\n");
    }

    Result<std::string> operator()(const PreferStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(stmt.hierarchy));
      HIREL_ASSIGN_OR_RETURN(NodeId stronger, h->FindByName(stmt.stronger));
      HIREL_ASSIGN_OR_RETURN(NodeId weaker, h->FindByName(stmt.weaker));
      HIREL_RETURN_IF_ERROR(h->AddPreferenceEdge(weaker, stronger));
      return StrCat("preferring '", stmt.stronger, "' over '", stmt.weaker,
                    "' in '", stmt.hierarchy, "'\n");
    }

    Result<std::string> operator()(const FactStmt& stmt) {
      HIREL_RETURN_IF_ERROR(RejectSysWrite(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      bool interning = stmt.kind != FactStmt::Kind::kRetract;
      Result<Item> resolved = [&]() {
        obs::Trace::Scope span(self.active_trace_, "resolve");
        return ResolveItem(relation->schema(), stmt.terms, interning);
      }();
      HIREL_RETURN_IF_ERROR(resolved.status());
      Item item = std::move(*resolved);
      if (self.txn_ != nullptr && stmt.relation == self.txn_relation_) {
        switch (stmt.kind) {
          case FactStmt::Kind::kAssert:
            self.txn_->Assert(std::move(item));
            break;
          case FactStmt::Kind::kDeny:
            self.txn_->Deny(std::move(item));
            break;
          case FactStmt::Kind::kRetract:
            self.txn_->Erase(std::move(item));
            break;
        }
        db.metrics().counter("txn.ops_staged").Add();
        return StrCat("staged (", self.txn_->num_staged(),
                      " operation(s) pending on '", self.txn_relation_,
                      "')\n");
      }
      switch (stmt.kind) {
        case FactStmt::Kind::kAssert:
          HIREL_RETURN_IF_ERROR(
              GuardedInsert(*relation, item, Truth::kPositive, self.options_,
                            self.active_trace_)
                  .status());
          db.metrics().counter("facts.asserted").Add();
          return StrCat("asserted into '", stmt.relation, "'\n");
        case FactStmt::Kind::kDeny:
          HIREL_RETURN_IF_ERROR(
              GuardedInsert(*relation, item, Truth::kNegative, self.options_,
                            self.active_trace_)
                  .status());
          db.metrics().counter("facts.denied").Add();
          return StrCat("denied in '", stmt.relation, "'\n");
        case FactStmt::Kind::kRetract:
          HIREL_RETURN_IF_ERROR(GuardedErase(*relation, item, self.options_,
                                             self.active_trace_));
          db.metrics().counter("facts.retracted").Add();
          return StrCat("retracted from '", stmt.relation, "'\n");
      }
      return Status::Internal("unhandled fact kind");
    }

    Result<std::string> operator()(const SelectStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileSelect(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      return FormatRelation(*out.relation);
    }

    Result<std::string> operator()(const ExplainPlanStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled, CompileWithSpan(self.active_trace_, [&] {
            return plan::CompileStatement(db, stmt.query->statement);
          }));
      plan::RewriteStats stats;
      {
        obs::Trace::Scope span(self.active_trace_, "rewrite");
        HIREL_ASSIGN_OR_RETURN(
            compiled, plan::RewritePlan(std::move(compiled), db, {}, &stats));
      }
      if (!stmt.analyze) {
        return StrCat("plan for ", stmt.text, ":\n",
                      plan::ExplainPlanTree(*compiled, &stats));
      }
      // EXPLAIN ANALYZE really executes the plan (the output is discarded;
      // for CREATE ... AS the result relation is not adopted) and reports
      // each node's actual rows, wall time, and subsumption probes.
      plan::ExecOptions exec;
      exec.inference = self.options_;
      exec.trace = self.active_trace_;
      exec.collect_node_stats = true;
      plan::ExecStats exec_stats;
      {
        obs::Trace::Scope span(self.active_trace_, "execute");
        auto start = std::chrono::steady_clock::now();
        HIREL_RETURN_IF_ERROR(
            plan::ExecutePlan(*compiled, db, exec, &exec_stats).status());
        uint64_t ns = ElapsedNs(start);
        span.Note("nodes", exec_stats.nodes_executed);
        span.Note("probes", exec_stats.subsumption_probes);
        RecordPlanMetrics(exec_stats, ns);
        self.pending_.subsumption_probes += exec_stats.subsumption_probes;
        self.pending_.rows_in += exec_stats.rows_scanned;
        self.pending_.digest = plan::PlanDigest(*compiled);
        if (self.slow_query_ms_ >= 0 &&
            ns >= static_cast<uint64_t>(self.slow_query_ms_) * 1'000'000) {
          LogSlowQuery(db, self.current_statement_text_, *compiled,
                       exec_stats, ns);
        }
      }
      return StrCat("analyzed plan for ", stmt.text, ":\n",
                    plan::ExplainAnalyzeTree(*compiled, exec_stats, &stats));
    }

    Result<std::string> operator()(const ExplainStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(Item item,
                             ResolveItem(relation->schema(), stmt.terms,
                                         /*allow_intern=*/false));
      HIREL_ASSIGN_OR_RETURN(Justification justification,
                             Explain(*relation, item, self.options_));
      return JustificationToString(*relation, justification);
    }

    Result<std::string> operator()(const ConsolidateStmt& stmt) {
      HIREL_RETURN_IF_ERROR(RejectSysWrite(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      size_t removed = 0;
      bool delta = false;
      std::optional<std::vector<TupleId>> seeds =
          DeltaConsolidateSeeds(stmt.relation, *relation);
      if (seeds.has_value()) {
        // The cached graph is patched (or rebuilt) to current first; the
        // delta sweep then walks only the seeds and whatever it removes.
        const SubsumptionGraph& graph = db.subsumption_cache().Get(
            *relation, nullptr, self.active_trace_);
        HIREL_ASSIGN_OR_RETURN(
            removed,
            ConsolidateDelta(*relation, self.options_, graph, *seeds));
        db.metrics().counter("consolidate.delta_runs").Add();
        delta = true;
      } else {
        HIREL_ASSIGN_OR_RETURN(removed,
                               ConsolidateInPlace(*relation, self.options_));
      }
      // Stamp the state we just made consistent: the next CONSOLIDATE can
      // go delta if the journal still covers these versions.
      Executor::ConsolidateMark mark;
      mark.relation_version = relation->version();
      const Schema& schema = relation->schema();
      mark.hierarchy_versions.reserve(schema.size());
      for (size_t i = 0; i < schema.size(); ++i) {
        mark.hierarchy_versions.push_back(schema.hierarchy(i)->version());
      }
      self.last_consolidated_[stmt.relation] = std::move(mark);
      return StrCat("consolidated '", stmt.relation, "': removed ", removed,
                    " redundant tuple(s)", delta ? " (delta)" : "", "\n");
    }

    /// The seed set for the delta form of CONSOLIDATE, or nullopt when a
    /// full sweep is required: first consolidate of this relation,
    /// non-offpath preemption (the redundancy rule delta reasoning is
    /// stated for off-path inference), any hierarchy edit or
    /// preference edge (erase seeding relies on dag-only TuplesSubsumedBy,
    /// which under-approximates successors once preferences exist), or a
    /// mutation journal that no longer covers the last consolidate.
    std::optional<std::vector<TupleId>> DeltaConsolidateSeeds(
        const std::string& name, const HierarchicalRelation& relation) {
      if (self.options_.preemption != PreemptionMode::kOffPath) {
        return std::nullopt;
      }
      auto it = self.last_consolidated_.find(name);
      if (it == self.last_consolidated_.end()) return std::nullopt;
      const Executor::ConsolidateMark& mark = it->second;
      const Schema& schema = relation.schema();
      if (mark.hierarchy_versions.size() != schema.size()) {
        return std::nullopt;
      }
      for (size_t i = 0; i < schema.size(); ++i) {
        if (schema.hierarchy(i)->version() != mark.hierarchy_versions[i] ||
            schema.hierarchy(i)->num_preference_edges() > 0) {
          return std::nullopt;
        }
      }
      std::optional<std::vector<MutationJournal::Record>> records =
          relation.journal().Since(mark.relation_version);
      if (!records.has_value()) return std::nullopt;  // journal overflow
      // Seed every tuple whose immediate-predecessor set (or own truth)
      // may have shifted since the mark. Successor lookups need the
      // current graph; absent ids (since-erased tuples) are ignored by
      // ConsolidateDelta, but their former subsumees still seed.
      const SubsumptionGraph& graph = db.subsumption_cache().Get(
          relation, nullptr, self.active_trace_);
      std::unordered_map<TupleId, size_t> position;
      position.reserve(graph.nodes.size());
      for (size_t i = 0; i < graph.nodes.size(); ++i) {
        position.emplace(graph.nodes[i], i);
      }
      std::vector<TupleId> seeds;
      for (const MutationJournal::Record& r : *records) {
        switch (r.kind) {
          case MutationJournal::Record::Kind::kInsert:
          case MutationJournal::Record::Kind::kTruth: {
            // The tuple itself, and its successors (it became one of
            // their predecessors, or its truth flipped under them).
            seeds.push_back(r.id);
            auto p = position.find(r.id);
            if (p != position.end()) {
              for (size_t s : graph.successors[p->second]) {
                seeds.push_back(graph.nodes[s]);
              }
            }
            break;
          }
          case MutationJournal::Record::Kind::kErase:
            // Former successors lost a predecessor; with off-path
            // preemption that can newly make them redundant (a shielding
            // opposite-truth predecessor vanished).
            for (TupleId t : relation.TuplesSubsumedBy(r.item)) {
              seeds.push_back(t);
            }
            break;
        }
      }
      return seeds;
    }

    Result<std::string> operator()(const ExplicateStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileExplicate(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      return FormatRelation(*out.relation);
    }

    Result<std::string> operator()(const ExtensionStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileExtension(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      std::vector<Item> extension;
      extension.reserve(out.relation->size());
      for (TupleId id : out.relation->TupleIds()) {
        extension.push_back(out.relation->ItemAt(id).ToItem());
      }
      std::sort(extension.begin(), extension.end());
      return FormatExtension(out.relation->schema(), extension,
                             StrCat("extension of '", stmt.relation, "' (",
                                    extension.size(), " rows)"));
    }

    /// A stored relation, or a sys.* provider materialized afresh, as a
    /// text table or (json) one line of JSON rows.
    Result<std::string> ShowRelation(const std::string& name, bool json) {
      auto render = [json](const HierarchicalRelation& r) {
        return json ? StrCat(FormatRelationJson(r), "\n") : FormatRelation(r);
      };
      Result<const HierarchicalRelation*> relation =
          std::as_const(db).GetRelation(name);
      if (relation.ok()) return render(**relation);
      VirtualRelationProvider* provider = db.FindVirtualRelation(name);
      if (provider == nullptr) return relation.status();
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation materialized,
                             provider->Materialize());
      return render(materialized);
    }

    Result<std::string> operator()(const ShowStmt& stmt) {
      if (stmt.prometheus) {
        obs::SyncEngineGauges(db);
        return obs::PrometheusText(db.metrics(),
                                   &obs::WaitEventRegistry::Global());
      }
      if (const SysShow* show = FindSysShow(stmt.what)) {
        std::string out;
        for (const char* name : show->relations) {
          if (name == nullptr) break;
          HIREL_ASSIGN_OR_RETURN(std::string part,
                                 ShowRelation(name, stmt.json));
          out += part;
        }
        return out;
      }
      switch (stmt.what) {
        case ShowStmt::What::kHierarchy: {
          HIREL_ASSIGN_OR_RETURN(const Hierarchy* h,
                                 std::as_const(db).GetHierarchy(stmt.name));
          return FormatHierarchy(*h);
        }
        case ShowStmt::What::kRelation:
          return ShowRelation(stmt.name, /*json=*/false);
        case ShowStmt::What::kHierarchies: {
          std::string out = "hierarchies:\n";
          for (const std::string& name : db.HierarchyNames()) {
            out += StrCat("  ", name, "\n");
          }
          return out;
        }
        case ShowStmt::What::kRelations: {
          std::string out = "relations:\n";
          for (const std::string& name : db.RelationNames()) {
            out += StrCat("  ", name, "\n");
          }
          for (const std::string& name : db.VirtualRelationNames()) {
            out += StrCat("  ", name, " (virtual)\n");
          }
          return out;
        }
        case ShowStmt::What::kSubsumption: {
          HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                                 std::as_const(db).GetRelation(stmt.name));
          const SubsumptionGraph& graph = db.subsumption_cache().Get(
              *relation, nullptr, self.active_trace_);
          return SubsumptionGraphToString(*relation, graph);
        }
        case ShowStmt::What::kRules: {
          std::string out = "rules:\n";
          for (const std::string& text : self.rule_texts_) {
            out += StrCat("  ", text, "\n");
          }
          return out;
        }
        case ShowStmt::What::kTrace: {
          if (stmt.json) return StrCat(self.trace_.RenderJson(), "\n");
          return self.trace_.Render();
        }
        default:
          break;  // the introspection SHOWs, handled above
      }
      return Status::Internal("unhandled show kind");
    }

    Result<std::string> operator()(const DropStmt& stmt) {
      if (self.txn_ != nullptr && !stmt.hierarchy &&
          stmt.name == self.txn_relation_) {
        return Status::InvalidArgument(
            StrCat("relation '", stmt.name,
                   "' has an open transaction; COMMIT or ABORT first"));
      }
      if (stmt.hierarchy) {
        HIREL_RETURN_IF_ERROR(db.DropHierarchy(stmt.name));
        return StrCat("dropped hierarchy '", stmt.name, "'\n");
      }
      HIREL_RETURN_IF_ERROR(db.DropRelation(stmt.name));
      self.last_consolidated_.erase(stmt.name);
      return StrCat("dropped relation '", stmt.name, "'\n");
    }

    Result<std::string> operator()(const CompressStmt& stmt) {
      HIREL_RETURN_IF_ERROR(RejectSysWrite(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(size_t saved, CompressInPlace(*relation));
      // Re-encoding rewrites tuples wholesale; drop the consolidate mark
      // rather than relying on journal coverage of the churn.
      self.last_consolidated_.erase(stmt.relation);
      return StrCat("compressed '", stmt.relation, "': saved ", saved,
                    " tuple(s), ", relation->size(), " remain\n");
    }

    Result<std::string> operator()(const BeginStmt& stmt) {
      if (self.txn_ != nullptr) {
        return Status::InvalidArgument(
            StrCat("a transaction on '", self.txn_relation_,
                   "' is already open"));
      }
      HIREL_RETURN_IF_ERROR(RejectSysWrite(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      self.txn_ = std::make_unique<Transaction>(relation, self.options_,
                                                &db.metrics());
      self.txn_relation_ = stmt.relation;
      return StrCat("transaction open on '", stmt.relation, "'\n");
    }

    Result<std::string> operator()(const CommitStmt&) {
      if (self.txn_ == nullptr) {
        return Status::InvalidArgument("no open transaction");
      }
      Status committed = self.txn_->Commit(self.active_trace_);
      self.txn_.reset();
      std::string relation = std::move(self.txn_relation_);
      self.txn_relation_.clear();
      HIREL_RETURN_IF_ERROR(committed);
      return StrCat("committed to '", relation, "'\n");
    }

    Result<std::string> operator()(const AbortStmt&) {
      if (self.txn_ == nullptr) {
        return Status::InvalidArgument("no open transaction");
      }
      HIREL_LOG(obs::LogLevel::kInfo, "txn", "abort",
                {{"relation", self.txn_relation_},
                 {"staged", StrCat(self.txn_->num_staged())}});
      self.txn_.reset();
      std::string relation = std::move(self.txn_relation_);
      self.txn_relation_.clear();
      return StrCat("aborted transaction on '", relation, "'\n");
    }

    Result<std::string> operator()(const ShowBindingStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(Item item,
                             ResolveItem(relation->schema(), stmt.terms,
                                         /*allow_intern=*/false));
      TupleBindingGraph graph = BuildTupleBindingGraph(*relation, item);
      return TupleBindingGraphToString(*relation, graph);
    }

    Result<std::string> operator()(const EliminateStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(stmt.hierarchy));
      NodeId node = kInvalidNode;
      if (stmt.node.kind == Term::Kind::kAll) {
        HIREL_ASSIGN_OR_RETURN(node, h->FindClass(stmt.node.name));
      } else {
        HIREL_ASSIGN_OR_RETURN(
            node, ResolveTerm(h, stmt.node, /*allow_intern=*/false));
      }
      std::string name = h->NodeName(node);
      HIREL_RETURN_IF_ERROR(db.EliminateNode(stmt.hierarchy, node));
      return StrCat("eliminated '", name, "' from '", stmt.hierarchy,
                    "' (subsumption among the rest preserved)\n");
    }

    Result<std::string> operator()(const CountStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(
          plan::PlanPtr compiled,
          CompileWithSpan(self.active_trace_, [&] { return plan::CompileCount(db, stmt); }));
      HIREL_ASSIGN_OR_RETURN(plan::PlanOutput out,
                             RunPlan(std::move(compiled)));
      if (!stmt.by_attribute) {
        return StrCat("count(", stmt.relation, ") = ", *out.count, "\n");
      }
      HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                             std::as_const(db).GetRelation(stmt.relation));
      HIREL_ASSIGN_OR_RETURN(size_t attr,
                             relation->schema().IndexOf(stmt.attribute));
      return StrCat("count(", stmt.relation, ") by ", stmt.attribute,
                    ":\n", RollUpToString(*relation, attr, *out.rollup));
    }

    Result<std::string> operator()(const RuleStmt& stmt) {
      // Validate against the current catalog before registering.
      RuleEngine probe(&db);
      HIREL_RETURN_IF_ERROR(probe.AddRule(stmt.text));
      self.rule_texts_.push_back(stmt.text);
      return StrCat("registered rule #", self.rule_texts_.size(), "\n");
    }

    Result<std::string> operator()(const DeriveStmt&) {
      RuleEngine engine(&db);
      for (const std::string& text : self.rule_texts_) {
        HIREL_RETURN_IF_ERROR(engine.AddRule(text));
      }
      RuleOptions options;
      options.inference = self.options_;
      options.trace = self.active_trace_;
      RuleStats stats;
      options.stats = &stats;
      Result<size_t> derived = [&]() {
        obs::Trace::Scope span(self.active_trace_, "derive fixpoint");
        return engine.Evaluate(options);
      }();
      self.pending_.rows_in += stats.rows_scanned;
      HIREL_RETURN_IF_ERROR(derived.status());
      self.pending_.rows_out += *derived;
      obs::MetricsRegistry& m = db.metrics();
      m.counter("derive.runs").Add();
      m.counter("derive.facts_derived").Add(*derived);
      return StrCat("derived ", *derived, " fact(s) from ",
                    self.rule_texts_.size(), " rule(s)\n");
    }

    Result<std::string> operator()(const SetPreemptionStmt& stmt) {
      if (EqualsIgnoreCase(stmt.mode, "offpath")) {
        self.options_.preemption = PreemptionMode::kOffPath;
      } else if (EqualsIgnoreCase(stmt.mode, "onpath")) {
        self.options_.preemption = PreemptionMode::kOnPath;
      } else if (EqualsIgnoreCase(stmt.mode, "none")) {
        self.options_.preemption = PreemptionMode::kNone;
      } else {
        return Status::InvalidArgument(
            StrCat("unknown preemption mode '", stmt.mode,
                   "' (expected offpath, onpath, or none)"));
      }
      return StrCat("preemption mode: ",
                    PreemptionModeToString(self.options_.preemption), "\n");
    }

    Result<std::string> operator()(const SaveStmt& stmt) {
      HIREL_RETURN_IF_ERROR(SaveDatabase(db, stmt.path));
      return StrCat("saved to '", stmt.path, "'\n");
    }

    Result<std::string> operator()(const LoadStmt& stmt) {
      HIREL_ASSIGN_OR_RETURN(std::unique_ptr<Database> loaded,
                             LoadDatabase(stmt.path));
      // Detach the alert manager and sampler before the old database (and
      // its registry) is destroyed by the swap; a tick landing mid-swap
      // then skips its metric writes. InstallSystemCatalog re-attaches
      // both.
      self.alerts_.Configure(nullptr, &self.history_);
      self.telemetry_.SetRegistry(nullptr);
      self.db_ = std::move(loaded);
      // The loaded database has no providers; re-register them so sys.*
      // keeps answering (the history ring itself survives the swap).
      self.InstallSystemCatalog();
      // Fresh database, fresh cache: forget consolidate marks for the old
      // catalog.
      self.last_consolidated_.clear();
      return StrCat("loaded '", stmt.path, "'\n");
    }

    Result<std::string> operator()(const HelpStmt&) { return HelpText(); }

    Result<std::string> operator()(const ResetMetricsStmt&) {
      db.metrics().Reset();
      db.subsumption_cache().ResetStats();
      obs::WaitEventRegistry::Global().Reset();
      return std::string("metrics reset\n");
    }

    Result<std::string> operator()(const SetSlowQueryStmt& stmt) {
      self.slow_query_ms_ = stmt.threshold_ms;
      if (stmt.threshold_ms < 0) return std::string("slow-query log: off\n");
      return StrCat("slow-query log: threshold ", stmt.threshold_ms,
                    " ms\n");
    }

    Result<std::string> operator()(const SetTelemetryStmt& stmt) {
      obs::TelemetrySampler& t = self.telemetry_;
      switch (stmt.mode) {
        case SetTelemetryStmt::Mode::kOn:
          t.Start();
          HIREL_LOG(obs::LogLevel::kInfo, "telemetry", "start",
                    {{"interval_ms", StrCat(t.interval_ms())}});
          return StrCat("telemetry: on (interval ", t.interval_ms(),
                        " ms)\n");
        case SetTelemetryStmt::Mode::kOff:
          t.Stop();
          HIREL_LOG(obs::LogLevel::kInfo, "telemetry", "stop",
                    {{"ticks", StrCat(t.ticks())}});
          return std::string("telemetry: off (history retained)\n");
        case SetTelemetryStmt::Mode::kInterval: {
          if (stmt.interval_ms < 1 || stmt.interval_ms > 3'600'000) {
            return Status::InvalidArgument(
                StrCat("SET TELEMETRY INTERVAL expects 1..3600000 ms, got ",
                       stmt.interval_ms));
          }
          t.SetIntervalMs(static_cast<uint64_t>(stmt.interval_ms));
          return StrCat("telemetry: interval ", t.interval_ms(), " ms (",
                        t.running() ? "on" : "off", ")\n");
        }
        case SetTelemetryStmt::Mode::kTick:
          t.Tick();
          return StrCat("telemetry: tick ", t.ticks(), "\n");
      }
      return Status::Internal("unhandled telemetry mode");
    }

    Result<std::string> operator()(const SetLogStmt& stmt) {
      obs::LogLevel level;
      if (!obs::ParseLogLevel(stmt.level, &level)) {
        return Status::InvalidArgument(
            StrCat("unknown log level '", stmt.level,
                   "' (expected debug, info, warn, error, or off)"));
      }
      obs::Logger::Global().set_min_level(level);
      return StrCat("log level: ", obs::LogLevelName(level), "\n");
    }

    Result<std::string> operator()(const ExportTraceStmt& stmt) {
      std::string json = obs::ChromeTraceJson(self.trace_, self.wait_spans_);
      std::FILE* file = std::fopen(stmt.path.c_str(), "w");
      if (file == nullptr) {
        return Status::IoError(
            StrCat("cannot open '", stmt.path, "' for writing"));
      }
      size_t written = std::fwrite(json.data(), 1, json.size(), file);
      std::fclose(file);
      if (written != json.size()) {
        return Status::IoError(StrCat("short write to '", stmt.path, "'"));
      }
      HIREL_LOG(obs::LogLevel::kInfo, "trace", "export",
                {{"path", stmt.path}, {"bytes", StrCat(json.size())}});
      return StrCat("exported trace to '", stmt.path, "' (", json.size(),
                    " bytes)\n");
    }

    Result<std::string> operator()(const CreateAlertStmt& stmt) {
      obs::AlertRule rule;
      rule.name = stmt.name;
      rule.metric = stmt.metric;
      if (!obs::ParseAlertOp(stmt.op, &rule.op)) {
        return Status::InvalidArgument(
            StrCat("unknown alert operator '", stmt.op,
                   "' (expected > < >= <= =)"));
      }
      rule.threshold = stmt.threshold;
      rule.for_samples = static_cast<uint32_t>(stmt.for_samples);
      if (!obs::ParseAlertSeverity(stmt.severity, &rule.severity)) {
        return Status::InvalidArgument(
            StrCat("unknown severity '", stmt.severity,
                   "' (expected info, warn, or crit)"));
      }
      HIREL_RETURN_IF_ERROR(self.alerts_.CreateAlert(rule));
      return StrCat("alert '", stmt.name, "': ", stmt.metric, " ", stmt.op,
                    " ", stmt.threshold, " for ", stmt.for_samples,
                    " sample(s), severity ",
                    obs::AlertSeverityName(rule.severity), "\n");
    }

    Result<std::string> operator()(const DropAlertStmt& stmt) {
      HIREL_RETURN_IF_ERROR(self.alerts_.DropAlert(stmt.name));
      return StrCat("alert '", stmt.name, "' dropped\n");
    }

    Result<std::string> operator()(const ExportDiagnosticsStmt& stmt) {
      return self.WriteDiagnostics(stmt.path, "statement");
    }

    Result<std::string> operator()(const SetDiagnosticsDirStmt& stmt) {
      self.alerts_.SetDiagnosticsDir(stmt.dir);
      if (stmt.dir.empty()) return std::string("diagnostics dir: off\n");
      HIREL_LOG(obs::LogLevel::kInfo, "diag", "set_dir",
                {{"dir", stmt.dir}});
      return StrCat("diagnostics dir: '", stmt.dir,
                    "' (auto-capture on alert fire)\n");
    }

    Result<std::string> operator()(const SetWatchdogStmt& stmt) {
      obs::WatchdogConfig config = self.alerts_.watchdog();
      config.query_budget_ms = stmt.query_budget_ms;
      self.alerts_.set_watchdog(config);
      if (stmt.query_budget_ms < 0) {
        return std::string("watchdog query budget: off\n");
      }
      return StrCat("watchdog query budget: ", stmt.query_budget_ms,
                    " ms\n");
    }
  };

  return std::visit(Visitor{*this, *db_}, statement);
}

}  // namespace hql
}  // namespace hirel
