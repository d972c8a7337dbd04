// The sys.* system catalog: the engine's observability data exposed as
// virtual hierarchical relations, queryable with the same SELECT /
// PROJECT / JOIN / subsumption machinery as user data. The providers are
// the only source of introspection data: SHOW METRICS / LOG / QUERIES /
// TELEMETRY / ALERTS / HEALTH / WAITS / STORAGE render these relations
// (FormatRelation, or FormatRelationJson for JSON), and EXPORT
// DIAGNOSTICS writes the JSON of every one of them.
//
// Relations (all read-only, materialized on scan):
//
//   sys.metrics    (name, kind, value, bucket)   metric registry; names
//                  live in a metric-name hierarchy built from their dotted
//                  prefixes, so `WHERE name = ALL cache` selects the whole
//                  cache.* subtree. Histograms explode into one row per
//                  count/sum_ns/max_ns plus each non-empty bucket.
//   sys.log        (seq, ts_us, level, component, message)   the event
//                  ring; levels form the severity hierarchy debug ⊃ info ⊃
//                  warn ⊃ error, so `WHERE level = ALL warn` returns every
//                  event covered by warn (warn and error).
//   sys.relations  (relation, kind, tuples, bytes)   stored and
//                  virtual relations (kind "stored" or "virtual"; virtual
//                  rows carry provider row-count hints).
//   sys.columns    (relation, column, col_bytes)   per-column byte
//                  breakdown of every stored relation.
//   sys.cache      (relation, version, graph_nodes)   SubsumptionCache
//                  entries with their version stamps.
//   sys.queries    (id, kind, statement, ok, wall_us, wait_us, rows_in,
//                  rows_out, probes, peak_bytes, digest)
//                  the executor's bounded query-history ring; ok is
//                  "false" for a failed statement, wait_us the attributed
//                  wait share of wall_us.
//   sys.waits      (site, wait_class, waits, total_us, max_us, p50_us,
//                  p90_us, p99_us)   wait-event aggregates with histogram
//                  percentiles; sites live in a hierarchy whose classes
//                  are the wait classes (latch, lock, io), so
//                  `WHERE site = ALL latch` selects every latch site.
//   sys.metrics_history  (name, seq, ts_ms, epoch_ms, value)   the
//                  TelemetrySampler rings (SET TELEMETRY ON); `name`
//                  shares the sys.metrics dotted-name hierarchy, so
//                  `WHERE name = ALL cache` selects a subtree's history by
//                  subsumption; epoch_ms is the wall clock of the sample.
//   sys.alerts     (alert, severity, state, metric, value, op, threshold,
//                  for_samples, fires, builtin)   every alert rule (user +
//                  built-in watchdog, builtin = "true") with its live
//                  state; severities form the chain info ⊃ warn ⊃ crit, so
//                  `WHERE severity = ALL warn` selects warn and crit
//                  alerts by subsumption.
//   sys.health     (component, verdict, firing, worst_alert)   one verdict
//                  per engine component (wal, cache, queries, telemetry)
//                  derived from the firing alerts, plus an "overall" row
//                  folding every firing alert.
//   sys.session    (key, value)   the session settings (incremental,
//                  preemption, telemetry, slow_query_ms, ...) and sampler
//                  state (telemetry_ticks, telemetry_ring_capacity);
//                  numeric settings are Int values.
//
// Backing hierarchies are hidden system hierarchies (Database::
// AddSysHierarchy): shared across providers per semantic domain, so
// natural joins between sys relations (e.g. sys.relations JOIN
// sys.columns on `relation`) are well-typed. They never appear in SHOW
// HIERARCHIES or snapshots, and results derived from sys.* relations
// cannot be adopted into the stored catalog.

#ifndef HIREL_OBS_SYS_CATALOG_H_
#define HIREL_OBS_SYS_CATALOG_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "obs/alerts.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"

namespace hirel {
namespace obs {

/// One sys.session row: a setting's name and its current value (an Int
/// for numeric settings, a String otherwise).
struct SessionSetting {
  std::string key;
  Value value;
};

/// Produces the current sys.session rows; called on every scan.
using SessionSettingsFn = std::function<std::vector<SessionSetting>()>;

/// Registers every sys.* provider on `db`. `history` is the executor's
/// query-history ring behind sys.queries, `telemetry` its sampler behind
/// sys.metrics_history, `alerts` its alert manager behind sys.alerts and
/// sys.health, and `session` the settings behind sys.session (null renders
/// any of them empty); all must outlive the database's providers. Call
/// again after replacing the database (LOAD).
void RegisterSystemCatalog(Database& db, const QueryHistoryRing* history,
                           const TelemetrySampler* telemetry = nullptr,
                           const AlertManager* alerts = nullptr,
                           SessionSettingsFn session = nullptr);

/// Refreshes the engine gauges derived from live structures — subsumption
/// cache stats, wait-class totals, stored relation/byte totals,
/// and the process gauges — so a sys.metrics scan (and SHOW METRICS
/// PROMETHEUS) reflects current state.
void SyncEngineGauges(const Database& db);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_SYS_CATALOG_H_
