// Alerting rules and the stall watchdog: the layer that *consumes* the
// telemetry the rest of src/obs/ produces and turns it into actionable
// state.
//
// `CREATE ALERT name ON <metric> <op> <threshold> [FOR n SAMPLES]
// [SEVERITY warn|crit]` registers a rule against the sampled metric
// rings. Every TelemetrySampler tick evaluates all rules (OnTick runs on
// the sampler thread after it has released its own lock, so evaluation
// may read the rings freely). A rule fires after `for_samples`
// consecutive breaching samples and resolves on the first non-breaching
// one; both transitions are logged via HIREL_LOG and counted in the
// `alerts.*` metrics. Because the sampler thread only exists while
// `SET TELEMETRY ON`, alert evaluation costs the query path nothing when
// telemetry is off.
//
// A built-in stall watchdog rides the same tick: completed queries whose
// wall time exceeds a configurable budget (from the query-history ring),
// and io/latch wait-class shares of wall time over a threshold (per-tick
// deltas from the WaitEventRegistry). Watchdog rules look exactly like
// user rules in SHOW ALERTS / sys.alerts but are marked builtin and cannot
// be dropped.
//
// Severities form a subsumption chain (info ⊂ warn ⊂ crit) mirrored as a
// hidden hierarchy behind sys.alerts, so `WHERE severity = ALL warn`
// selects warn+crit rows — the paper's hierarchy machinery applied to the
// engine's own health. SHOW HEALTH / sys.health fold the firing set into
// one verdict per component (wal, cache, queries, telemetry).
//
// When `SET DIAGNOSTICS_DIR` is active, each fire transition enqueues at
// most one capture request; the executor drains the queue after the next
// statement and writes a full EXPORT DIAGNOSTICS bundle — rendering
// never happens on the sampler thread.

#ifndef HIREL_OBS_ALERTS_H_
#define HIREL_OBS_ALERTS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hirel {
namespace obs {

class MetricsRegistry;
class QueryHistoryRing;
class TelemetrySampler;

enum class AlertSeverity { kInfo = 0, kWarn = 1, kCrit = 2 };

const char* AlertSeverityName(AlertSeverity severity);
bool ParseAlertSeverity(std::string_view text, AlertSeverity* out);

enum class AlertOp { kGt, kLt, kGe, kLe, kEq };

const char* AlertOpText(AlertOp op);
bool ParseAlertOp(std::string_view text, AlertOp* out);

/// The immutable definition half of an alert.
struct AlertRule {
  std::string name;
  std::string metric;  // sampled metric, or a watchdog.* pseudo-metric
  AlertOp op = AlertOp::kGt;
  int64_t threshold = 0;
  uint32_t for_samples = 1;  // consecutive breaching samples before firing
  AlertSeverity severity = AlertSeverity::kWarn;
  bool builtin = false;
};

/// ok: never fired and not breaching. pending: breaching but the FOR
/// window is not yet full. firing: active. resolved: fired at least once,
/// currently not breaching.
enum class AlertState { kOk, kPending, kFiring, kResolved };

const char* AlertStateName(AlertState state);

struct AlertSnapshot {
  AlertRule rule;
  AlertState state = AlertState::kOk;
  bool has_value = false;
  int64_t last_value = 0;   // most recent observation of rule.metric
  uint32_t consecutive = 0; // breaching samples in a row
  uint64_t fires = 0;       // lifetime fire transitions
  uint64_t fired_seq = 0;   // tick seq of the last fire (0 = never)
  uint64_t fired_epoch_ms = 0;  // wall clock of the last fire
  uint64_t resolved_seq = 0;    // tick seq of the last resolve
};

/// Stall-watchdog thresholds. A negative value disables that check; its
/// built-in rule then reads as ok (and resolves if it was firing).
struct WatchdogConfig {
  int64_t query_budget_ms = 10000;  // completed-query wall-time budget
  double io_share = 0.95;     // io wait ns / wall ns between ticks
  double latch_share = 0.95;  // latch wait ns / wall ns between ticks
};

enum class HealthVerdict { kOk, kDegraded, kCritical };

const char* HealthVerdictName(HealthVerdict verdict);

struct ComponentHealth {
  std::string component;
  HealthVerdict verdict = HealthVerdict::kOk;
  uint64_t firing = 0;        // alerts currently firing for this component
  std::string worst_alert;    // highest-severity firing alert, if any
};

/// Maps a metric name to the health component it indicts.
const char* AlertComponent(std::string_view metric);

/// Folds an alert snapshot into one verdict per component. Always emits
/// the four fixed components (wal, cache, queries, telemetry) so
/// SHOW HEALTH reads the same whether or not anything is wrong.
std::vector<ComponentHealth> DeriveHealth(
    const std::vector<AlertSnapshot>& alerts);

/// The engine-wide verdict: component "overall", folded the same way over
/// every firing alert.
ComponentHealth OverallHealth(const std::vector<AlertSnapshot>& alerts);

/// Rule storage + tick-driven evaluation. All public methods are
/// thread-safe; OnTick is called by the TelemetrySampler (from whatever
/// thread ticks it), everything else by the executor.
class AlertManager {
 public:
  AlertManager();

  AlertManager(const AlertManager&) = delete;
  AlertManager& operator=(const AlertManager&) = delete;

  /// Wires the evaluation inputs. Both may be nullptr (the LOAD path
  /// detaches the registry while the catalog is swapped); evaluation
  /// skips whatever is missing.
  void Configure(MetricsRegistry* metrics, const QueryHistoryRing* history);

  Status CreateAlert(AlertRule rule);
  Status DropAlert(const std::string& name);

  /// Evaluates every rule against the sampler's latest tick. Called by
  /// TelemetrySampler::Tick() after the sampler released its own lock.
  void OnTick(const TelemetrySampler& sampler);

  /// Copies every rule + state, built-ins first, then by name.
  std::vector<AlertSnapshot> Snapshot() const;

  /// Rules currently firing at `at_least` severity or above.
  size_t FiringCount(AlertSeverity at_least = AlertSeverity::kInfo) const;

  WatchdogConfig watchdog() const;
  void set_watchdog(const WatchdogConfig& config);

  /// Directory for auto-captured diagnostic bundles; empty disables.
  void SetDiagnosticsDir(std::string dir);
  std::string diagnostics_dir() const;

  /// One pending auto-capture, enqueued on a fire transition while a
  /// diagnostics dir is set.
  struct CaptureRequest {
    std::string alert;
    uint64_t seq = 0;  // tick seq of the fire, used in the file name
    std::string dir;   // diagnostics dir at fire time
  };

  /// Drains the auto-capture queue (executor thread writes the bundles).
  std::vector<CaptureRequest> TakePendingCaptures();

 private:
  struct RuleState {
    AlertRule rule;
    AlertState state = AlertState::kOk;
    bool has_value = false;
    int64_t last_value = 0;
    uint32_t consecutive = 0;
    uint64_t fires = 0;
    uint64_t fired_seq = 0;
    uint64_t fired_epoch_ms = 0;
    uint64_t resolved_seq = 0;
  };

  // All Locked helpers require mutex_ held.
  void ObserveLocked(RuleState& rs, bool breach, int64_t value,
                     uint64_t seq, uint64_t epoch_ms);
  void FireLocked(RuleState& rs, uint64_t seq, uint64_t epoch_ms);
  void ResolveLocked(RuleState& rs, uint64_t seq);
  void EvaluateWatchdogLocked(RuleState& rs, uint64_t seq,
                              uint64_t epoch_ms);

  mutable std::mutex mutex_;
  MetricsRegistry* metrics_ = nullptr;
  const QueryHistoryRing* history_ = nullptr;
  std::map<std::string, RuleState> rules_;
  WatchdogConfig watchdog_;
  std::string diagnostics_dir_;
  std::vector<CaptureRequest> pending_captures_;
  uint64_t fired_total_ = 0;
  uint64_t resolved_total_ = 0;

  // Watchdog evaluation state: the last query-history id already scanned
  // and the previous tick's wait-class totals + steady-clock stamp for
  // per-tick share deltas.
  uint64_t last_query_id_ = 0;
  bool have_prev_waits_ = false;
  uint64_t prev_wait_ns_[4] = {0, 0, 0, 0};
  uint64_t prev_tick_steady_ns_ = 0;
  bool share_valid_ = false;       // per-tick, set by OnTick
  int64_t io_share_pct_ = 0;
  int64_t latch_share_pct_ = 0;
};

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_ALERTS_H_
