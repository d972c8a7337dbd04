// HQL executor: statements -> effects on a Database, plus rendered output.

#ifndef HIREL_HQL_EXECUTOR_H_
#define HIREL_HQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "core/binding.h"
#include "core/transaction.h"
#include "hql/ast.h"
#include "obs/alerts.h"
#include "obs/query_stats.h"
#include "obs/sys_catalog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/wait.h"

namespace hirel {
namespace hql {

/// Executes HQL against an owned Database. Updates are guarded: ASSERT and
/// DENY reject statements that would violate the ambiguity constraint, so a
/// resolver tuple must be asserted before the statement it shields (exactly
/// the ordering discipline Section 3.1 demands of transactions).
class Executor {
 public:
  Executor() : db_(std::make_unique<Database>()) { InstallSystemCatalog(); }

  /// Takes ownership of an existing database.
  explicit Executor(std::unique_ptr<Database> db) : db_(std::move(db)) {
    InstallSystemCatalog();
  }

  Database& database() { return *db_; }
  const Database& database() const { return *db_; }

  InferenceOptions& options() { return options_; }

  /// Parses and executes a script; returns accumulated output. Execution
  /// stops at the first failing statement.
  Result<std::string> Execute(std::string_view source);

  /// Executes a single parsed statement.
  Result<std::string> ExecuteStatement(const Statement& statement);

  /// The last completed query's span tree (what SHOW TRACE renders).
  const obs::Trace& last_trace() const { return trace_; }

  /// The per-query resource-accounting ring (what sys.queries and SHOW
  /// QUERIES expose). Every executed statement is recorded, pass or fail.
  const obs::QueryHistoryRing& query_history() const { return history_; }

  /// The background metrics sampler behind sys.metrics_history and SHOW
  /// TELEMETRY (SET TELEMETRY ON|OFF|INTERVAL n controls it). Exposed
  /// mutable so tests can Tick() deterministically without the thread.
  obs::TelemetrySampler& telemetry() { return telemetry_; }
  const obs::TelemetrySampler& telemetry() const { return telemetry_; }

  /// The alert manager behind CREATE ALERT / sys.alerts / SHOW HEALTH.
  /// Evaluated on every telemetry tick; exposed mutable so tests can
  /// inspect snapshots and tune the watchdog directly.
  obs::AlertManager& alerts() { return alerts_; }
  const obs::AlertManager& alerts() const { return alerts_; }

 private:
  /// Plan-level figures accumulated while one statement executes, folded
  /// into its QueryStats record afterwards. A statement may run more than
  /// one plan (none for DDL), so probes / rows accumulate.
  struct PendingPlanStats {
    uint64_t subsumption_probes = 0;
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    std::string digest;  // last plan's digest
  };

  /// Registers the sys.* virtual-relation providers on db_. Called from
  /// both constructors and again after LOAD replaces the database.
  void InstallSystemCatalog();

  /// The sys.session rows: current settings and sampler state.
  std::vector<obs::SessionSetting> SessionSettings() const;

  /// Runs one statement with per-query resource accounting: times it,
  /// tracks peak kernel allocations, and appends a QueryStats record to
  /// the history ring (after execution, so a query over sys.queries does
  /// not observe itself).
  Result<std::string> ExecuteTracked(const Statement& statement);

  Result<std::string> ExecuteStatementImpl(const Statement& statement);

  /// Writes a diagnostics bundle: the JSON rows of every sys.* relation
  /// under its name, plus the capture time and cause (EXPORT DIAGNOSTICS
  /// and alert auto-capture share it). Runs on the executor thread only:
  /// the providers read registries whose accessors are not sampler-safe.
  Result<std::string> WriteDiagnostics(const std::string& path,
                                       const std::string& cause);

  /// Writes one auto-capture bundle per alert that fired since the last
  /// statement (the sampler thread only enqueues requests).
  void DrainAlertCaptures();

  std::unique_ptr<Database> db_;
  InferenceOptions options_;

  // Query-history ring behind sys.queries / SHOW QUERIES. Declared after
  // db_ so it outlives no provider that reads it: members destroy in
  // reverse order, and the sys.queries provider (owned by db_) never
  // touches the ring during destruction.
  obs::QueryHistoryRing history_;

  // Alert rules evaluated on every telemetry tick. Declared before
  // telemetry_ so the sampler (whose destructor joins the tick thread, and
  // whose ticks call into the manager) dies first.
  obs::AlertManager alerts_;

  // Metrics-history sampler behind sys.metrics_history. Declared after db_
  // for the same destruction-order reason as history_; its thread (if SET
  // TELEMETRY ON started one) is joined by its destructor before db_ (and
  // the registry it samples) goes away. InstallSystemCatalog points it at
  // the current database's registry, so LOAD re-targets it.
  obs::TelemetrySampler telemetry_;
  uint64_t next_query_id_ = 1;
  PendingPlanStats pending_;

  // SET SLOW_QUERY_MS threshold: statements whose plan execution takes at
  // least this many milliseconds are written to the event log with text,
  // plan digest, and per-node actuals. Negative = off (the default).
  // Arming it also turns on per-node stats collection for every plan.
  int64_t slow_query_ms_ = -1;

  // Source text of the statement currently executing (set by Execute for
  // each statement in turn) — what the slow-query log records.
  std::string current_statement_text_;

  // Wait spans recorded while trace_ was captured (EXPORT TRACE places
  // them on the session track).
  std::vector<obs::WaitEventRegistry::WaitSpan> wait_spans_;

  // The trace being recorded for the current Execute call (null outside
  // one) and the last completed, trace-worthy query's spans. SHOW TRACE /
  // SHOW METRICS / RESET METRICS do not replace trace_, so SHOW TRACE
  // reports the query before it rather than itself.
  obs::Trace* active_trace_ = nullptr;
  obs::Trace trace_;

  // Active BEGIN..COMMIT/ABORT transaction, if any. While active, ASSERT /
  // DENY / RETRACT on its relation are staged; COMMIT validates the batch
  // once (so a conflict may be created and resolved within it, per Section
  // 3.1). Dropping the relation is refused while the transaction is open.
  std::unique_ptr<Transaction> txn_;
  std::string txn_relation_;

  // Registered Datalog rules (RULE '...'); evaluated on DERIVE against
  // whatever database is current, so LOAD does not invalidate them until
  // a referenced relation disappears.
  std::vector<std::string> rule_texts_;

  // SET INCREMENTAL ON|OFF: gates the subsumption-cache patch path (kept
  // in sync with the cache's own flag), delta consolidation, and the
  // DERIVE extension-append fast path. Re-applied to the cache after LOAD
  // replaces the database.
  bool incremental_ = true;

  // CONSOLIDATE bookkeeping for the delta form: the stamps at which each
  // relation was last fully consolidated in place. A later CONSOLIDATE
  // whose journal covers the recorded stamp re-examines only the mutated
  // frontier. Entries are dropped when the relation is dropped or the
  // database is replaced (LOAD).
  struct ConsolidateMark {
    uint64_t relation_version = 0;
    std::vector<uint64_t> hierarchy_versions;
  };
  std::unordered_map<std::string, ConsolidateMark> last_consolidated_;
};

}  // namespace hql
}  // namespace hirel

#endif  // HIREL_HQL_EXECUTOR_H_
